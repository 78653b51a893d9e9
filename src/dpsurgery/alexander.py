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

The determinant is a fraction-free Bareiss elimination on the dense kernel
of `laurent`: each update a_ij <- (a_ij a_kk - a_ik a_kj) / a_{k-1,k-1} is
one multiply-accumulate and one exact division.  Crossing matrices are
sparse, so the update is skipped when a_ij = 0 and a_ik = 0 or a_kj = 0:
its numerator is then the zero polynomial, and zero divided by the nonzero
previous pivot is exactly zero, so the skip changes no entry.  Each pivot
is chosen by sparsity (Markowitz's rule): first the column with the fewest
nonzero entries among the rows not yet eliminated, then, of its rows with a
nonzero entry, the one with the fewest nonzero entries.  Each swap, of
columns or of rows, flips the sign.  Pivoting on the diagonal lets the
three-entry rows of a crossing matrix fill in; a sparse pivot leaves more
updates to skip.
"""

from __future__ import annotations

from .knots import BraidWord, KnotDiagram, braid_to_diagram, torus_knot
from .laurent import LaurentPoly, div_exact, mul_add

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


def laurent_determinant(matrix: list[list[list[int]]]) -> LaurentPoly:
    """Determinant over Z[t] of a square matrix of coefficient lists (lowest
    degree first, `[]` for zero), exact, as a `LaurentPoly` at degree 0.

    The rows are copied; the entries are only read.  Elimination is
    fraction-free (Bareiss), with exact polynomial division at every step.
    At step k the pivot column is, of columns k..n-1, the one with the
    fewest nonzero entries in rows k..n-1 (then the lowest index); it swaps
    into position k in rows k..n-1, flipping the sign.  With no nonzero
    entry in it the determinant is zero.  The pivot row is then, of the
    rows k..n-1 with a nonzero entry in column k, the one with the fewest
    nonzero entries in columns k..n-1 (then the shortest entry in column k,
    then the lowest index); it swaps into position k, flipping the sign
    again.  Permuting the rows and columns not yet eliminated keeps every
    entry a minor of the permuted matrix, so every division stays exact.
    """
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    rows = [list(row) for row in matrix]

    sign = 1
    prev: list[int] = [1]
    for k in range(n - 1):
        active = rows[k:]
        c = min(range(k, n), key=lambda j: sum(1 for row in active if row[j]))
        if c != k:
            for row in active:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        candidates = [i for i in range(k, n) if rows[i][k]]
        if not candidates:
            return LaurentPoly.zero()
        r = min(candidates, key=lambda i: (sum(map(bool, rows[i][k:])), len(rows[i][k])))
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        pivot = rows[k]
        a_kk = pivot[k]
        for i in range(k + 1, n):
            row = rows[i]
            a_ik = row[k]
            for j in range(k + 1, n):
                a_ij = row[j]
                a_kj = pivot[j]
                # with a_ij = 0 and a_ik * a_kj = 0 the update is exactly 0
                if a_ij or (a_ik and a_kj):
                    num = mul_add(mul_add([], 1, a_ij, a_kk), -1, a_ik, a_kj)
                    row[j] = div_exact(num, prev)
            row[k] = []
        prev = a_kk

    det = LaurentPoly.make(0, rows[n - 1][n - 1])
    return -det if sign < 0 else det


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
