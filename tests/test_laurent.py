"""Exact Laurent polynomial arithmetic and the text form."""

import random

import pytest

from dpsurgery.laurent import LaurentPoly, div_exact, mul_add


def test_make_trims_and_validates():
    p = LaurentPoly.make(-2, [0, 1, 0, 2, 0])
    assert p.min_degree == -1 and p.coeffs == (1, 0, 2)
    assert LaurentPoly.make(5, [0, 0]) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        LaurentPoly(0, (0, 1))


def add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The sum of two Laurent polynomials, which the package does not export."""
    lo = min(a.min_degree, b.min_degree)
    out = [0] * (max(a.max_degree, b.max_degree) - lo + 1)
    for degree, c in a.terms() + b.terms():
        out[degree - lo] += c
    return LaurentPoly.make(lo, out)


def test_arithmetic():
    one = LaurentPoly.one()
    trefoil = LaurentPoly.make(-1, [1, -1, 1])
    assert trefoil == LaurentPoly(-1, (1, -1, 1))
    assert trefoil * one == trefoil
    assert -trefoil == LaurentPoly(-1, (-1, 1, -1))
    assert (trefoil * LaurentPoly.zero()).is_zero()
    square = trefoil * trefoil
    assert square.evaluate_unit(1) == 1
    assert square == LaurentPoly(-2, (1, -2, 3, -2, 1))


def test_evaluate_unit():
    p = LaurentPoly(-1, (1, -1, 1))
    assert p.evaluate_unit(1) == 1
    assert p.evaluate_unit(-1) == -3
    with pytest.raises(ValueError):
        p.evaluate_unit(2)


def test_reverse_and_palindrome():
    p = LaurentPoly(-1, (1, -1, 1))
    assert p.is_palindromic()
    assert not LaurentPoly(0, (1, 2)).is_palindromic()


def test_substitute_square():
    assert LaurentPoly.one().substitute_square() == LaurentPoly.one()
    p = LaurentPoly(-1, (1, -1, 1))
    assert p.substitute_square() == LaurentPoly(-2, (1, 0, -1, 0, 1))
    q = LaurentPoly(-1, (-1, 3, -1))
    assert q.substitute_square() == LaurentPoly(-2, (-1, 0, 3, 0, -1))


def test_format_and_parse_roundtrip():
    examples = [
        (LaurentPoly.zero(), "0"),
        (LaurentPoly.one(), "1"),
        (LaurentPoly(-1, (1, -1, 1)), "t^-1 - 1 + t"),
        (LaurentPoly(-1, (-1, 3, -1)), "-t^-1 + 3 - t"),
        (LaurentPoly(-3, (2, 0, 0, 5)), "2 t^-3 + 5"),
        (LaurentPoly(2, (7,)), "7 t^2"),
        (LaurentPoly(-2, (-1, 0, 3, 0, -1)), "-t^-2 + 3 - t^2"),
    ]
    for p, text in examples:
        assert p.format() == text


def test_random_ring_axioms():
    rng = random.Random(5)

    def random_poly():
        if rng.random() < 0.1:
            return LaurentPoly.zero()
        width = rng.randint(1, 5)
        return LaurentPoly.make(rng.randint(-4, 4),
                                [rng.randint(-5, 5) for _ in range(width)])

    for _ in range(200):
        a, b, c = random_poly(), random_poly(), random_poly()
        assert a * b == b * a
        assert a * add(b, c) == add(a * b, a * c)
        assert (a * b) * c == a * (b * c)


def test_content_and_shift():
    p = LaurentPoly(0, (2, 4, 6))
    assert p.content() == 2
    assert p.shift(3).min_degree == 3
    assert LaurentPoly.zero().content() == 0


# -- the dense kernel: coefficient lists, lowest degree first, [] is zero -------

def _dense(rng, max_len=7):
    coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(0, max_len))]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _naive_mul_add(out, s, a, b):
    total = list(out) + [0] * max(0, len(a) + len(b) - 1 - len(out))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            total[i + j] += s * x * y
    while total and not total[-1]:
        total.pop()
    return total


def test_kernel_mul_add_matches_naive_product():
    rng = random.Random(5)
    for _ in range(400):
        out, a, b = _dense(rng), _dense(rng), _dense(rng)
        s = rng.choice((1, -1, 3, -2, 0))
        a_before, b_before = list(a), list(b)
        expected = _naive_mul_add(out, s, a, b)
        result = mul_add(out, s, a, b)
        assert result == expected, (out, s, a, b)
        assert result is out  # accumulated in place
        assert (a, b) == (a_before, b_before)
    assert mul_add([], 1, [], [1, 2]) == []
    assert mul_add([0, 0, 1], -1, [1], [0, 0, 1]) == []  # cancellation is trimmed


def test_kernel_div_exact_inverts_products():
    rng = random.Random(6)
    for _ in range(400):
        q, b = _dense(rng), _dense(rng)
        if not b:
            continue
        product = mul_add([], 1, q, b)
        before = list(product)
        assert div_exact(product, b) == q, (q, b)
        assert product == before
    with pytest.raises(ZeroDivisionError):
        div_exact([1, 2], [])


@pytest.mark.parametrize("a, b", [
    ([1, 3], [1, 2]),           # leading coefficient 3 leaves a remainder mod 2
    ([2, 3], [2]),              # the same with a constant divisor
    ([1, 0, 1], [0, 1]),        # quotient t leaves the nonzero leftover 1
    ([5, 2, 1], [1, 2, 1]),     # quotient 1 leaves the leftover 4
    ([1, 1], [1, 0, 1]),        # shorter than the divisor
])
def test_kernel_div_exact_refuses_remainder_and_leftover(a, b):
    with pytest.raises(ArithmeticError, match="inexact"):
        div_exact(a, b)


def test_kernel_div_exact_refuses_random_inexact_divisions():
    rng = random.Random(8)
    for _ in range(300):
        q, b = _dense(rng), _dense(rng)
        if len(b) < 2:
            continue
        r = [rng.randint(-3, 3) for _ in range(len(b) - 1)]
        while r and not r[-1]:
            r.pop()
        if not r:
            continue
        a = mul_add(list(r), 1, q, b)  # q*b + r with r nonzero of lower degree
        with pytest.raises(ArithmeticError):
            div_exact(a, b)
