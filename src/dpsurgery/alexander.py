"""Alexander polynomials from the crossing matrix of a knot diagram.

The Alexander matrix has one row per crossing and one column per arc
(J. W. Alexander, 1928; Lickorish, *An Introduction to Knot Theory*, ch. 6).
A positive crossing puts 1 - t at its over arc, t at its incoming under arc
and -1 at its outgoing one; a negative crossing, multiplied by the unit t,
puts t - 1, 1 and -t.  Row by row this is the abelianized Fox matrix of the
Wirtinger presentation up to a unit +-t^k, so every entry is a plain
polynomial.  Dropping the last (redundant) crossing and the column of arc 0
leaves a square matrix whose determinant is the polynomial up to a unit.
The stored normal form is symmetric about degree zero with value +1 at
t = 1; that choice makes coefficient multisets comparable across knots.

The determinant is `laurent.laurent_determinant`, the package's one
fraction-free Bareiss elimination, which pivots by sparsity.
"""

from __future__ import annotations

from .knots import BraidWord, KnotDiagram, braid_to_diagram, torus_knot
from .laurent import LaurentPoly, laurent_determinant, mul_add

# crossing sign -> entries at the over, incoming under and outgoing under arc
_CROSSING_ENTRIES = {1: ([1, -1], [0, 1], [-1]), -1: ([-1, 1], [1], [0, -1])}


def alexander_matrix(d: KnotDiagram) -> list[list[list[int]]]:
    """Crossing rows but the last, over the arcs but arc 0, as coefficient
    lists (lowest degree first, `[]` for zero); where two arcs of a crossing
    coincide their entries are summed."""
    matrix = []
    for c in d.crossings[:-1]:
        row: list[list[int]] = [[] for _ in range(d.arcs)]
        for arc, entry in zip((c.over, c.under_in, c.under_out), _CROSSING_ENTRIES[c.sign]):
            mul_add(row[arc], 1, entry, [1])
        matrix.append(row[1:])
    return matrix


def normalize_alexander(raw: LaurentPoly) -> LaurentPoly:
    """Fix the unit ambiguity: divide out content, center, make value 1 at 1."""
    if raw.is_zero():
        raise ValueError("Alexander determinant vanished; invalid knot input")
    content = raw.content()
    poly = LaurentPoly.make(raw.min_degree, [c // content for c in raw.coeffs])
    span = poly.max_degree - poly.min_degree
    if span % 2:
        raise ValueError("Alexander polynomial has odd span; invalid knot input")
    centered = poly.shift(-(poly.min_degree + span // 2))
    if not centered.is_palindromic():
        raise ValueError("Alexander polynomial is not symmetric; invalid knot input")
    at_one = centered.evaluate_unit(1)
    if at_one == -1:
        centered = -centered
    elif at_one != 1:
        raise ValueError(f"Alexander polynomial evaluates to {at_one} at 1")
    return centered


def alexander_polynomial(d: KnotDiagram) -> LaurentPoly:
    """Normalized Alexander polynomial of a knot diagram."""
    return normalize_alexander(laurent_determinant(alexander_matrix(d)))


def alexander_of_braid(b: BraidWord) -> LaurentPoly:
    return alexander_polynomial(braid_to_diagram(b))


def coefficient_multiset(p: LaurentPoly) -> tuple[int, ...]:
    """All nonzero coefficients with multiplicity, as a sorted tuple."""
    return tuple(sorted(c for _, c in p.terms()))


def knot_family(count: int) -> list[tuple[BraidWord, KnotDiagram, LaurentPoly]]:
    """(2, 2r+1) torus knots r = 1..count as (braid, diagram, Alexander polynomial).

    The coefficient multisets are pairwise distinct by construction (the
    r-th polynomial has exactly 2r+1 nonzero coefficients); the function
    still verifies that and refuses to return a colliding family.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    family = []
    seen: dict[tuple[int, ...], int] = {}
    for r in range(1, count + 1):
        braid = torus_knot(r)
        diagram = braid_to_diagram(braid)
        delta = alexander_polynomial(diagram)
        multiset = coefficient_multiset(delta)
        if multiset in seen:
            raise RuntimeError(f"coefficient multiset collision between K_{seen[multiset]} "
                               f"and K_{r}")
        seen[multiset] = r
        family.append((braid, diagram, delta))
    return family
