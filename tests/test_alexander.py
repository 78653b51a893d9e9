"""Alexander polynomials, cross-checked against an independent coloring oracle."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from dpsurgery.alexander import (alexander_matrix, alexander_of_braid, alexander_polynomial,
                                 coefficient_multiset, knot_family, laurent_determinant)
from dpsurgery.knots import (BraidWord, Crossing, FIGURE_EIGHT, KnotGroupData, TREFOIL,
                             UNKNOT, braid_to_diagram, torus_knot, wirtinger_presentation)
from dpsurgery.laurent import LaurentPoly
from dpsurgery.scenarios import run_builtin
from dpsurgery.words import Word


def fraction_det(matrix) -> Fraction:
    """Independent exact determinant via fraction Gaussian elimination."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def rational_det(matrix):
    """`fraction_det` of an integer matrix, as an int."""
    det = fraction_det(matrix)
    assert det.denominator == 1
    return int(det)


def coloring_determinant(diagram):
    """Knot determinant from the coloring relation 2*over = in + out.

    Building the crossing/arc incidence matrix directly from the coloring
    rule and deleting one row and one column is an independent route to
    |H_1| of the double branched cover.
    """
    n = diagram.arcs
    if not diagram.crossings:
        return 1
    rows = []
    for c in diagram.crossings:
        row = [0] * n
        row[c.over] += 2
        row[c.under_in] -= 1
        row[c.under_out] -= 1
        rows.append(row)
    minor = [row[1:] for row in rows[:-1]]
    return abs(rational_det(minor))


def random_knot_braids(count, max_letters=8, max_strands=3, seed=1234,
                       min_letters=1, min_strands=2):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(min_strands, max_strands)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(min_letters, max_letters)))
        braid = BraidWord(strands, letters)
        if braid.is_knot_closure():
            found.append(braid)
    return found


def test_unknot():
    assert alexander_of_braid(UNKNOT) == LaurentPoly.one()
    assert alexander_of_braid(BraidWord(2, (1,))) == LaurentPoly.one()
    assert alexander_of_braid(BraidWord(2, (-1,))) == LaurentPoly.one()


def test_trefoil():
    assert alexander_of_braid(TREFOIL) == LaurentPoly(-1, (1, -1, 1))


def test_figure_eight():
    assert alexander_of_braid(FIGURE_EIGHT) == LaurentPoly(-1, (-1, 3, -1))


def test_coefficient_multisets():
    assert coefficient_multiset(LaurentPoly.one()) == (1,)
    assert coefficient_multiset(alexander_of_braid(TREFOIL)) == (-1, 1, 1)
    assert coefficient_multiset(alexander_of_braid(FIGURE_EIGHT)) == (-1, -1, 3)


def test_random_braids_value_symmetry_determinant():
    for braid in random_knot_braids(50):
        diagram = braid_to_diagram(braid)
        delta = alexander_polynomial(diagram)
        assert delta.evaluate_unit(1) == 1
        assert delta.is_palindromic() and delta.min_degree == -delta.max_degree
        assert abs(delta.evaluate_unit(-1)) == coloring_determinant(diagram)


def test_known_determinants():
    assert abs(alexander_of_braid(TREFOIL).evaluate_unit(-1)) == 3
    assert abs(alexander_of_braid(FIGURE_EIGHT).evaluate_unit(-1)) == 5
    assert abs(alexander_of_braid(torus_knot(2)).evaluate_unit(-1)) == 5


def test_torus_knot_3_4():
    # closure of (s1 s2)^4; the cyclotomic formula gives
    # (t^12 - 1)(t - 1) / ((t^3 - 1)(t^4 - 1)) = (t^8 + t^4 + 1)/(t^2 + t + 1)
    # = t^6 - t^5 + t^3 - t + 1, centered below; determinant |D(-1)| = 3
    braid = BraidWord(3, (1, 2) * 4)
    delta = alexander_of_braid(braid)
    assert delta == LaurentPoly(-3, (1, -1, 0, 1, 0, -1, 1))
    assert abs(delta.evaluate_unit(-1)) == 3


def test_torus_knot_2_5_exact():
    delta = alexander_of_braid(torus_knot(2))
    assert delta == LaurentPoly(-2, (1, -1, 1, -1, 1))


def test_invariance_under_conjugation_and_stabilization():
    rng = random.Random(77)
    for braid in random_knot_braids(20, max_letters=6, seed=4321):
        delta = alexander_of_braid(braid)
        # conjugation by a generator
        g = rng.randint(1, braid.strands - 1) if braid.strands > 1 else None
        if g is not None:
            conjugated = BraidWord(braid.strands, (g,) + braid.letters + (-g,))
            assert alexander_of_braid(conjugated) == delta
        # Markov stabilization: add a strand and a crossing with it
        for sign in (1, -1):
            stabilized = BraidWord(braid.strands + 1,
                                   braid.letters + (sign * braid.strands,))
            assert alexander_of_braid(stabilized) == delta


def test_torus_knot_family():
    family = knot_family(10)
    sizes = [len(coefficient_multiset(delta)) for _, _, delta in family]
    assert sizes == [3, 5, 7, 9, 11, 13, 15, 17, 19, 21]
    multisets = {coefficient_multiset(delta) for _, _, delta in family}
    assert len(multisets) == 10
    assert family[0] == (TREFOIL, braid_to_diagram(TREFOIL), LaurentPoly(-1, (1, -1, 1)))
    # second entry: 5 nonzero coefficients
    assert len(coefficient_multiset(family[1][2])) == 5
    with pytest.raises(ValueError):
        knot_family(0)


def test_alexander_family_builds_no_knot_group(monkeypatch):
    # every wirtinger_presentation call builds a KnotGroupData, wherever the
    # function was imported; the family's polynomials need none
    built = []
    monkeypatch.setattr(KnotGroupData, "__post_init__", built.append)
    assert run_builtin("alexander", {"count": 5}).exit_code() == 0
    assert built == []


def test_torus_knot_family_matches_closed_form():
    """The (2, 2r+1) torus knot has Delta = sum over i = -r..r of (-1)^(r-i) t^i.

    The closed form needs no crossing matrix.  For r = 40 that matrix is
    80 x 80 with at most three nonzero cells in a row, where the pivot rule
    decides most of the work.
    """
    family = knot_family(40)
    for r, (braid, _, delta) in enumerate(family, start=1):
        assert braid == torus_knot(r)
        assert delta == LaurentPoly(-r, tuple((-1) ** (r - i) for i in range(-r, r + 1))), r


# -- the determinant on coefficient lists (lowest degree first, [] is zero) -----

ONE, T, ZERO = [1], [0, 1], []


def poly(coeffs, degree=0):
    """The `LaurentPoly` t^degree * coeffs, as `laurent_determinant` returns it."""
    return LaurentPoly.make(degree, coeffs)


def times(*entries):
    """The product of coefficient lists, as a `LaurentPoly` at degree 0."""
    product = LaurentPoly.one()
    for entry in entries:
        product = product * poly(entry)
    return product


def test_laurent_determinant_of_empty_matrix_is_one():
    assert laurent_determinant([]) == LaurentPoly.one()


def test_laurent_determinant_zero_pivot_swaps_rows_and_flips_sign():
    # both columns hold one entry, so column 0 stays; it is nonzero only in
    # row 1, so row 1 swaps in: det [[0, t], [1, 0]] = -t
    assert laurent_determinant([[ZERO, T], [ONE, ZERO]]) == poly([-1], 1)
    # column 2 (one entry, in row 1) swaps in, then row 1; at the second
    # step column 2 again holds fewer entries.  Row 2 is [0, t^-1, 0]
    # shifted by t, so det = -(1 * t * 1) = -t, t times the unshifted -1
    matrix = [[ONE, ONE, ZERO], [ONE, ONE, T], [ZERO, ONE, ZERO]]
    assert laurent_determinant(matrix) == poly([-1], 1)
    # a nonzero a_00 still gives way to a sparser column, and its one
    # nonzero row is row 0, so no row moves: det [[t, 1], [1, 0]] = -1
    assert laurent_determinant([[T, ONE], [ONE, ZERO]]) == poly([-1])
    # column 2 swaps in, then row 2, its only nonzero row: det = t^2 * (0 - t)
    matrix = [[ZERO, ONE, ZERO], [T, ONE, ZERO], [ONE, T, [0, 0, 1]]]
    assert laurent_determinant(matrix) == poly([-1], 3)
    # a permuted diagonal: every column holds one entry, so no column moves
    # and each step swaps in the row of its entry; sigma is odd, so
    # det = sign(sigma) * p_0 p_1 p_2 p_3 = -p_0 p_1 p_2 p_3.  The entry
    # -2 t^-1 is shifted by t, and so is the product
    diagonal = [T, [1, 1], [-2], [1, 0, 1]]
    product = times(*diagonal)
    sigma = (2, 0, 3, 1)
    matrix = [[diagonal[i] if j == sigma[i] else ZERO for j in range(4)] for i in range(4)]
    assert laurent_determinant(matrix) == -product
    # lower triangular: the last column is the sparsest, so steps 0 and 1
    # each swap a column and a row in (an even count); with columns 0 and 1
    # swapped, step 2 swaps one more column in, and the sign flips.  Row 2,
    # shifted by t, has t - t^2 below the diagonal
    lower = [[diagonal[i] if j == i else ([0, 1, -1] if i == 2 else [1, -1]) if j < i else ZERO
              for j in range(4)] for i in range(4)]
    assert laurent_determinant(lower) == product
    assert laurent_determinant([[row[1], row[0]] + row[2:] for row in lower]) == -product


def test_laurent_determinant_of_singular_matrix_is_zero():
    assert laurent_determinant([[ONE, T], [ONE, T]]) == LaurentPoly.zero()
    # column 0 is all zero
    assert laurent_determinant([[ZERO, ONE], [ZERO, T]]) == LaurentPoly.zero()
    assert laurent_determinant([[T, [-1, 1]], [[0, 0, 1], [0, -1, 1]]]) == LaurentPoly.zero()


def test_laurent_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        laurent_determinant([[ONE, T]])
    with pytest.raises(ValueError):
        laurent_determinant([[ONE], [T]])


def _evaluate(entry, t):
    return sum((c * Fraction(t) ** d for d, c in enumerate(entry)), Fraction(0))


def _random_entry(rng, leading):
    """A coefficient list with `leading` zeros first, trimmed."""
    coeffs = [0] * rng.randint(0, 4) + leading
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_laurent_determinant_matches_fraction_determinant_at_integers():
    rng = random.Random(11)

    def random_poly():
        if rng.random() < 0.25:
            return ZERO
        return _random_entry(rng, [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

    for _ in range(80):
        n = rng.randint(1, 4)
        matrix = [[random_poly() for _ in range(n)] for _ in range(n)]
        det = laurent_determinant(matrix)
        assert det.min_degree >= 0 or det.is_zero()
        for t in (2, 3, -2, 5):
            expected = fraction_det([[_evaluate(p, t) for p in row] for row in matrix])
            assert _evaluate(det.coeffs, t) * Fraction(t) ** det.min_degree == expected, \
                (matrix, t)


def test_laurent_determinant_on_sparse_matrices_with_zero_pivots():
    """5-10 square matrices with 60-85 % zero cells, checked against fractions.

    On such matrices most Bareiss updates have a_ij = 0 and a_ik = 0 or
    a_kj = 0, which the elimination skips.  A nonzero cell in each row, on
    a random permutation, keeps most of them nonsingular.  a_00 is always
    zero, and a row that repeats the leading cells of the row above makes a
    later leading minor, and so a later pivot, vanish.
    """
    rng = random.Random(23)

    def nonzero_poly():
        return _random_entry(rng, [rng.choice((-3, -2, -1, 1, 2, 3))]
                             + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])

    for _ in range(60):
        n = rng.randint(5, 10)
        zeros = rng.uniform(0.60, 0.85)
        matrix = [[ZERO if rng.random() < zeros else nonzero_poly() for _ in range(n)]
                  for _ in range(n)]
        for row, column in enumerate(rng.sample(range(n), n)):
            matrix[row][column] = nonzero_poly()
        matrix[0][0] = ZERO
        k = rng.randint(2, n - 2)
        matrix[k][:k + 1] = matrix[k - 1][:k + 1]
        det = laurent_determinant(matrix)
        for t in (2, 3, -2, 5):
            expected = fraction_det([[_evaluate(p, t) for p in row] for row in matrix])
            assert _evaluate(det.coeffs, t) * Fraction(t) ** det.min_degree == expected, \
                (matrix, t)


def permutation_sign(perm) -> int:
    """+1 for an even permutation of range(len(perm)), -1 for an odd one."""
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def test_laurent_determinant_permutation_and_transpose_identities():
    """det(P_sigma A P_tau) = sgn sigma * sgn tau * det A, and det(A^T) = det A.

    On 2-12 square matrices with 60-85 % zero cells, a permutation of rows
    and columns changes which column and row the pivot rule picks at every
    step, so each swap's sign flip is checked against the others.  Some
    matrices repeat a row (singular), and some have an all-zero column.
    """
    rng = random.Random(31)

    def nonzero_poly():
        return _random_entry(rng, [rng.choice((-3, -2, -1, 1, 2, 3))]
                             + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])

    shapes = {"nonzero": 0, "zero": 0}
    for trial in range(90):
        n = rng.randint(2, 12)
        zeros = rng.uniform(0.60, 0.85)
        matrix = [[ZERO if rng.random() < zeros else nonzero_poly() for _ in range(n)]
                  for _ in range(n)]
        for row, column in enumerate(rng.sample(range(n), n)):
            matrix[row][column] = nonzero_poly()
        if trial % 5 == 1:
            i, j = rng.sample(range(n), 2)
            matrix[i] = list(matrix[j])
        elif trial % 5 == 2:
            column = rng.randrange(n)
            for row in matrix:
                row[column] = ZERO
        det = laurent_determinant(matrix)
        shapes["nonzero" if det else "zero"] += 1
        sigma, tau = rng.sample(range(n), n), rng.sample(range(n), n)
        permuted = [[matrix[sigma[i]][tau[j]] for j in range(n)] for i in range(n)]
        sign = permutation_sign(sigma) * permutation_sign(tau)
        assert laurent_determinant(permuted) == (det if sign > 0 else -det), (matrix, sigma, tau)
        transposed = [list(column) for column in zip(*matrix)]
        assert laurent_determinant(transposed) == det, matrix
    assert shapes["nonzero"] >= 40 and shapes["zero"] >= 30, shapes


# -- Laurent polynomial ring operations the package does not export -------------

def term(coeff: int, degree: int = 0) -> LaurentPoly:
    return LaurentPoly.make(degree, [coeff])


def add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    lo = min(a.min_degree, b.min_degree)
    out = [0] * (max(a.max_degree, b.max_degree) - lo + 1)
    for degree, c in a.terms() + b.terms():
        out[degree - lo] += c
    return LaurentPoly.make(lo, out)


# -- the crossing matrix against the Fox rows of the Wirtinger relators ----------

def fox_derivative_row(relator: Word, ngens: int) -> list[LaurentPoly]:
    """Abelianized Fox derivatives of one relator (every generator -> t)."""
    row = [LaurentPoly.zero() for _ in range(ngens)]
    exponent = 0
    for x in relator.letters:
        g = x >> 1
        if x & 1:
            exponent -= 1
            row[g] = add(row[g], term(-1, exponent))
        else:
            row[g] = add(row[g], term(1, exponent))
            exponent += 1
    return row


def at_degree_0(row: list[LaurentPoly]) -> list[LaurentPoly]:
    """`row` times the power of t that starts its lowest entry at degree 0."""
    base = min((p.min_degree for p in row if p), default=0)
    return [p.shift(-base) for p in row]


def crossing_matrix_equals_fox_rows(braid: BraidWord) -> bool:
    """Each `alexander_matrix` row, shifted to degree 0, is the Fox row of its
    crossing's Wirtinger relator, without the column of arc 0 and shifted
    alike, up to sign."""
    diagram = braid_to_diagram(braid)
    relators = wirtinger_presentation(diagram).presentation.relators
    matrix = alexander_matrix(diagram)
    assert len(matrix) == max(len(relators) - 1, 0)
    for row, relator in zip(matrix, relators):
        crossing = at_degree_0([poly(entry) for entry in row])
        fox = at_degree_0(fox_derivative_row(relator, diagram.arcs)[1:])
        if crossing != fox and crossing != [-p for p in fox]:
            return False
    return True


def test_alexander_matrix_rows_are_fox_rows_up_to_units():
    braids = (random_knot_braids(300, max_letters=14, max_strands=6, seed=2010)
              + random_knot_braids(20, max_letters=40, max_strands=6, seed=2011,
                                   min_letters=20, min_strands=3)
              + [BraidWord.parse(text) for text in
                 ("B1:", "B2: 1", "B2: -1", "B2: 1 1 1", "B3: 1 -2 1 -2")])
    # kinks: a crossing whose over arc is also one of its under arcs
    kinks = [braid for braid in braids
             if any(c.over in (c.under_in, c.under_out)
                    for c in braid_to_diagram(braid).crossings[:-1])]
    assert len(kinks) >= 20
    assert {-1, 1} <= {c.sign for braid in kinks for c in braid_to_diagram(braid).crossings
                       if c.over in (c.under_in, c.under_out)}
    for braid in braids:
        assert crossing_matrix_equals_fox_rows(braid), braid


def test_alexander_matrix_of_small_diagrams():
    assert alexander_matrix(braid_to_diagram(UNKNOT)) == []
    assert alexander_matrix(braid_to_diagram(BraidWord(2, (1,)))) == []
    assert alexander_matrix(braid_to_diagram(BraidWord(2, (-1,)))) == []
    # kinks: only the first crossing has a row, and its arc 1 entry stands
    # alone while arc 0 holds the sum of the other two
    positive = braid_to_diagram(BraidWord(3, (1, -2)))
    assert positive.crossings[0] == Crossing(over=0, under_in=1, under_out=0, sign=1)
    assert alexander_matrix(positive) == [[[0, 1]]]  # under-in t
    negative = braid_to_diagram(BraidWord(3, (-1, 2)))
    assert negative.crossings[0] == Crossing(over=0, under_in=0, under_out=1, sign=-1)
    assert alexander_matrix(negative) == [[[0, -1]]]  # under-out -t
    assert alexander_matrix(braid_to_diagram(TREFOIL)) == [[[0, 1], [-1]], [[-1], [1, -1]]]


# -- Fox against Burau: a closed braid's Wirtinger Fox matrix is I - Burau --------

def burau_matrix(braid):
    """Unreduced Burau matrix: sigma_i acts on strands i, i+1 as [[1-t, t], [1, 0]]."""
    one, zero, t, t_inv = term(1), LaurentPoly.zero(), term(1, 1), term(1, -1)
    n = braid.strands
    product = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for letter in braid.letters:
        i = abs(letter) - 1
        block = ([[add(one, -t), t], [one, zero]] if letter > 0
                 else [[zero, one], [t_inv, add(one, -t_inv)]])
        generator = [[one if r == c else zero for c in range(n)] for r in range(n)]
        for r in range(2):
            for c in range(2):
                generator[i + r][i + c] = block[r][c]
        product = [[reduce(add, (product[r][m] * generator[m][c] for m in range(n)), zero)
                    for c in range(n)] for r in range(n)]
    return product


def laplace_det(matrix):
    """Determinant by cofactor expansion along the first row: no division at all."""
    if not matrix:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for j, cell in enumerate(matrix[0]):
        if cell:
            cofactor = cell * laplace_det([row[:j] + row[j + 1:] for row in matrix[1:]])
            total = add(total, cofactor if j % 2 == 0 else -cofactor)
    return total


def up_to_units(poly):
    """`poly` times the unit +-t^k that starts it at degree 0 with a positive coefficient."""
    poly = poly.shift(-poly.min_degree)
    return -poly if poly.coeffs and poly.coeffs[0] < 0 else poly


def test_fox_alexander_matches_burau_minor_on_random_knot_braids():
    # the second batch has alexander-batch's sizes: 3-6 strands, 20-40 letters
    braids = (random_knot_braids(300, max_letters=14, max_strands=6, seed=2010)
              + random_knot_braids(20, max_letters=40, max_strands=6, seed=2011,
                                   min_letters=20, min_strands=3))
    for braid in braids:
        burau = burau_matrix(braid)
        minor = [[add(term(1 if i == j else 0), -burau[i][j]) for j in range(1, braid.strands)]
                 for i in range(1, braid.strands)]
        assert up_to_units(laplace_det(minor)) == up_to_units(alexander_of_braid(braid)), braid
