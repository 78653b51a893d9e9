"""Alexander polynomials, cross-checked against an independent coloring oracle."""

import random
from fractions import Fraction

import pytest

from dpsurgery.alexander import (alexander_of_braid, alexander_polynomial,
                                 coefficient_multiset, knot_family, laurent_determinant)
from dpsurgery.knots import (BraidWord, FIGURE_EIGHT, TREFOIL, UNKNOT,
                             braid_to_diagram, torus_knot)
from dpsurgery.laurent import LaurentPoly


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


def random_knot_braids(count, max_letters=8, max_strands=3, seed=1234):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(2, max_strands)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(1, max_letters)))
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
    assert family[0][0] == TREFOIL
    assert family[0][1].presentation.ngens == 3
    assert family[0][2] == LaurentPoly(-1, (1, -1, 1))
    # second entry: 5 nonzero coefficients
    assert len(coefficient_multiset(family[1][2])) == 5
    with pytest.raises(ValueError):
        knot_family(0)


T = LaurentPoly.term(1, 1)
ONE, ZERO = LaurentPoly.one(), LaurentPoly.zero()


def test_laurent_determinant_of_empty_matrix_is_one():
    assert laurent_determinant([]) == ONE


def test_laurent_determinant_zero_pivot_swaps_rows_and_flips_sign():
    # rows[0][0] is zero, so Bareiss swaps in row 1: det [[0, t], [1, 0]] = -t
    assert laurent_determinant([[ZERO, T], [ONE, ZERO]]) == LaurentPoly.term(-1, 1)
    # a swap at the second step of a 3x3: det = -(1 * t * t^-1) = -1
    matrix = [[ONE, ONE, ZERO], [ONE, ONE, T], [ZERO, LaurentPoly.term(1, -1), ZERO]]
    assert laurent_determinant(matrix) == LaurentPoly.term(-1, 0)


def test_laurent_determinant_of_singular_matrix_is_zero():
    assert laurent_determinant([[ONE, T], [ONE, T]]) == ZERO
    assert laurent_determinant([[ZERO, ONE], [ZERO, T]]) == ZERO  # no pivot at all
    assert laurent_determinant([[T, T + (-ONE)], [T * T, T * T + (-T)]]) == ZERO


def test_laurent_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        laurent_determinant([[ONE, T]])
    with pytest.raises(ValueError):
        laurent_determinant([[ONE], [T]])


def _evaluate(poly, t):
    return sum((c * Fraction(t) ** d for d, c in poly.terms()), Fraction(0))


def test_laurent_determinant_matches_fraction_determinant_at_integers():
    rng = random.Random(11)

    def random_poly():
        if rng.random() < 0.25:
            return ZERO
        return LaurentPoly.make(rng.randint(-2, 2),
                                [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

    for _ in range(80):
        n = rng.randint(1, 4)
        matrix = [[random_poly() for _ in range(n)] for _ in range(n)]
        det = laurent_determinant(matrix)
        for t in (2, 3, -2, 5):
            expected = fraction_det([[_evaluate(p, t) for p in row] for row in matrix])
            assert _evaluate(det, t) == expected, (matrix, t)


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
        return LaurentPoly.make(rng.randint(-2, 2), [rng.choice((-3, -2, -1, 1, 2, 3))]
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
            assert _evaluate(det, t) == expected, (matrix, t)


# -- Fox against Burau: a closed braid's Wirtinger Fox matrix is I - Burau --------

def burau_matrix(braid):
    """Unreduced Burau matrix: sigma_i acts on strands i, i+1 as [[1-t, t], [1, 0]]."""
    t, t_inv = LaurentPoly.term(1, 1), LaurentPoly.term(1, -1)
    n = braid.strands
    product = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for letter in braid.letters:
        i = abs(letter) - 1
        block = ([[ONE + (-t), t], [ONE, ZERO]] if letter > 0
                 else [[ZERO, ONE], [t_inv, ONE + (-t_inv)]])
        generator = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
        for r in range(2):
            for c in range(2):
                generator[i + r][i + c] = block[r][c]
        product = [[sum((product[r][m] * generator[m][c] for m in range(n)), ZERO)
                    for c in range(n)] for r in range(n)]
    return product


def laplace_det(matrix):
    """Determinant by cofactor expansion along the first row: no division at all."""
    if not matrix:
        return ONE
    total = ZERO
    for j, cell in enumerate(matrix[0]):
        if cell:
            term = cell * laplace_det([row[:j] + row[j + 1:] for row in matrix[1:]])
            total = total + (term if j % 2 == 0 else -term)
    return total


def up_to_units(poly):
    """`poly` times the unit +-t^k that starts it at degree 0 with a positive coefficient."""
    poly = poly.shift(-poly.min_degree)
    return -poly if poly.coeffs and poly.coeffs[0] < 0 else poly


def test_fox_alexander_matches_burau_minor_on_random_knot_braids():
    for braid in random_knot_braids(300, max_letters=14, max_strands=6, seed=2010):
        burau = burau_matrix(braid)
        minor = [[(ONE if i == j else ZERO) + (-burau[i][j]) for j in range(1, braid.strands)]
                 for i in range(1, braid.strands)]
        assert up_to_units(laplace_det(minor)) == up_to_units(alexander_of_braid(braid)), braid
