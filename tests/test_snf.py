"""Smith normal form: worked examples and the determinant-divisor oracle."""

import random
from itertools import combinations
from math import gcd

import pytest

from dpsurgery.snf import (cokernel_invariants, cokernel_map, determinant,
                           element_order_in_cokernel, mat_mul, smith_normal_form)


def cofactor_det(m):
    """Independent determinant by cofactor expansion (test oracle)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def minor_gcd(m, k):
    """gcd of all k x k minors, by brute-force enumeration."""
    rows, cols = len(m), len(m[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, cofactor_det(sub))
    return abs(g)


def test_identity_2x2():
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]


def test_diag_2_3_gives_1_6():
    m = [[2, 0], [0, 3]]
    d, u, v = smith_normal_form(m)
    assert d == [[1, 0], [0, 6]]
    assert mat_mul(mat_mul(u, m), v) == d
    # determinant-divisor oracle: gcd of 1x1 minors is 1, of 2x2 minors is 6
    assert minor_gcd(m, 1) == 1
    assert minor_gcd(m, 2) == 6


def test_zero_1x3():
    d, _, _ = smith_normal_form([[0, 0, 0]])
    assert d == [[0, 0, 0]]


def test_rectangular_shapes():
    for m in ([[1, 2, 3]], [[1], [2], [3]], [[0]], [[5, 0], [0, 0], [0, 0]]):
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d


def test_random_matrices_determinant_divisor_oracle():
    rng = random.Random(20260808)
    for trial in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(cofactor_det(u)) == 1
        assert abs(cofactor_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        product = 1
        for k in range(1, min(rows, cols) + 1):
            product *= diag[k - 1]
            assert abs(product) == minor_gcd(m, k)


def test_bareiss_determinant_matches_cofactor():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == cofactor_det(m)


def test_determinant_of_empty_matrix_is_one():
    assert determinant([]) == cofactor_det([]) == 1


@pytest.mark.parametrize("m", [[[1, 2]], [[1], [2]], [[1, 2], [3]], [[1], [2, 3]], [[]]])
def test_determinant_refuses_non_square_and_ragged(m):
    with pytest.raises(ValueError, match="^determinant needs a square matrix$"):
        determinant(m)


@pytest.mark.parametrize("m", [[[0, 1], [1, 0]], [[0, 2, 1], [3, 0, 0], [1, 1, 5]],
                               [[0, 0, 1], [0, 1, 0], [1, 0, 0]]])
def test_determinant_swaps_past_a_zero_leading_pivot(m):
    assert determinant(m) == cofactor_det(m) != 0


@pytest.mark.parametrize("m", [[[0]], [[1, 2], [2, 4]], [[0, 0], [0, 5]],
                               [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                               [[0, 1, 0], [0, 2, 0], [0, 3, 1]]])
def test_determinant_of_singular_matrix_is_zero(m):
    assert determinant(m) == cofactor_det(m) == 0


def test_determinant_entries_beyond_64_bits():
    big = 2 ** 64
    assert determinant([[big, 1], [1, big]]) == cofactor_det([[big, 1], [1, big]]) == big ** 2 - 1
    rng = random.Random(64)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-2 ** 80, 2 ** 80) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == cofactor_det(m)


def test_cokernel_invariants():
    assert cokernel_invariants([[2, 3]], 2) == (1, ())
    assert cokernel_invariants([[2, 4]], 2) == (1, (2,))
    assert cokernel_invariants([], 3) == (3, ())
    assert cokernel_invariants([[1, 0], [0, 1]], 2) == (0, ())


def test_element_orders():
    # Z^2 / <(2,4)> = Z + Z_2 with torsion class (1,2)
    assert element_order_in_cokernel([[2, 4]], 2, [1, 0]) is None
    assert element_order_in_cokernel([[2, 4]], 2, [1, 2]) == 2
    assert element_order_in_cokernel([[2, 0], [0, 3]], 2, [1, 1]) == 6
    assert element_order_in_cokernel([[2, 0], [0, 3]], 2, [0, 0]) == 1
    assert element_order_in_cokernel([], 2, [0, 1]) is None


def _invariants_from_diagonal(m, ncols):
    """(free rank, torsion) read off smith_normal_form's diagonal: the oracle."""
    d, _, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(m), ncols))]
    nonzero = [x for x in diag if x]
    return ncols - len(nonzero), tuple(x for x in nonzero if x >= 2)


def _relation_matrix(rng):
    """A tall relation matrix with zero rows, repeated rows and a few large entries."""
    cols = rng.randint(1, 8)
    distinct = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rng.randint(0, 6))]
    for row in distinct:
        if rng.random() < 0.2:
            row[rng.randrange(cols)] = rng.choice([-1, 1]) * rng.randint(10 ** 6, 10 ** 12)
    pool = distinct + [[0] * cols]
    m = [list(rng.choice(pool)) for _ in range(rng.randint(0, 40))]
    return m, cols


def test_cokernel_invariants_match_smith_normal_form_diagonal():
    rng = random.Random(20261018)
    for _ in range(300):
        m, cols = _relation_matrix(rng)
        assert cokernel_invariants(m, cols) == _invariants_from_diagonal(m, cols), m


def test_cokernel_invariants_ignore_zero_and_repeated_rows():
    assert cokernel_invariants([[0, 0], [2, 4], [0, 0], [2, 4]], 2) == (1, (2,))
    assert cokernel_invariants([[0, 0, 0]] * 5, 3) == (3, ())
    with pytest.raises(ValueError):
        cokernel_invariants([[1, 2], [3]], 2)


def _torsion_order(m, ncols):
    rank, torsion = _invariants_from_diagonal(m, ncols)
    order = 1
    for t in torsion:
        order *= t
    return rank, order


def test_element_order_matches_index_oracle():
    """ord(v) = |T(M)| / |T(M + v)|, and infinite exactly when v lowers the free rank.

    Adding the relation v to Z^n / M quotients by the cyclic subgroup <v>; when
    v has finite order k that subgroup lies in the torsion, so |T| shrinks by k.
    """
    rng = random.Random(7011)
    for _ in range(300):
        m, cols = _relation_matrix(rng)
        vector = [rng.randint(-4, 4) for _ in range(cols)]
        rank, order = _torsion_order(m, cols)
        rank_v, order_v = _torsion_order(m + [vector], cols)
        expected = None if rank_v < rank else order // order_v
        assert element_order_in_cokernel(m, cols, vector) == expected, (m, vector)


def test_cokernel_map_reports_free_coordinates():
    """Factors >= 2 first, then a 0 per free coordinate; a free image is an integer."""
    # Z^2 / <(2, -3)> = Z with a -> 3, b -> 2 up to one sign
    factors, images = cokernel_map([[2, -3]], 2)
    assert factors == (0,)
    assert sorted(abs(c) for c, in images) == [2, 3]
    assert 2 * images[0][0] - 3 * images[1][0] == 0
    # Z_2 + Z: e_0 has order 2 and e_1 generates the free part
    factors, images = cokernel_map([[2, 0], [0, 0]], 2)
    assert factors == (2, 0)
    assert images[0] == (1, 0) and images[1][0] == 0 and abs(images[1][1]) == 1
    # finite: residues only; e_0 has order 2 and e_1 order 3 in Z_6
    factors, images = cokernel_map([[2, 0], [0, 3]], 2)
    assert factors == (6,)
    assert images[0] == (3,) and images[1][0] in (2, 4)
    assert cokernel_map([], 3) == ((0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
