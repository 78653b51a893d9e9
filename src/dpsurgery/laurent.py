"""Integer Laurent polynomials in one variable, exact and immutable.

`LaurentPoly.format` lists the terms in ascending degree, e.g.
`t^-1 - 1 + t`; the zero polynomial prints as `0`.

Dense arithmetic lives in one kernel on plain coefficient lists, lowest
degree first, with no trailing zero; `[]` is the zero polynomial.
`mul_add` is the one multiply-accumulate (`out += s*a*b`) and `div_exact`
the one exact division.  `LaurentPoly.__mul__` and the Bareiss
determinant in `alexander` both run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class LaurentPoly:
    min_degree: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.coeffs and (self.coeffs[0] == 0 or self.coeffs[-1] == 0):
            raise ValueError("stored coefficients must be trimmed; use LaurentPoly.make")
        if not self.coeffs:
            object.__setattr__(self, "min_degree", 0)

    @staticmethod
    def make(min_degree: int, coeffs) -> "LaurentPoly":
        coeffs = [int(c) for c in coeffs]
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return LaurentPoly(0, ())
        return LaurentPoly(min_degree + lo, tuple(coeffs[lo:hi]))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def term(coeff: int, degree: int = 0) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly.zero()
        return LaurentPoly(degree, (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def max_degree(self) -> int:
        if not self.coeffs:
            return 0
        return self.min_degree + len(self.coeffs) - 1

    def terms(self) -> list[tuple[int, int]]:
        """(degree, coefficient) pairs for nonzero coefficients, ascending."""
        return [(self.min_degree + i, c) for i, c in enumerate(self.coeffs) if c]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_degree, other.min_degree)
        hi = max(self.max_degree, other.max_degree)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_degree + i - lo] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_degree + i - lo] += c
        return LaurentPoly.make(lo, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_degree, tuple(-c for c in self.coeffs)) if self.coeffs else self

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        # a product of trimmed polynomials over Z is trimmed
        return LaurentPoly(self.min_degree + other.min_degree,
                           tuple(mul_add([], 1, self.coeffs, other.coeffs)))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return LaurentPoly(self.min_degree + k, self.coeffs)

    def evaluate_unit(self, u: int) -> int:
        """Exact value at t = 1 or t = -1."""
        if u not in (1, -1):
            raise ValueError("only t = +-1 is supported")
        total = 0
        for degree, c in self.terms():
            total += c if (u == 1 or degree % 2 == 0) else -c
        return total

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def substitute_square(self) -> "LaurentPoly":
        """Substitute t -> t^2: doubles every exponent."""
        if not self.coeffs:
            return self
        out = [0] * (2 * len(self.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return LaurentPoly(2 * self.min_degree, tuple(out))

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for degree, c in self.terms():
            if degree == 0:
                body = str(abs(c))
            else:
                power = "t" if degree == 1 else f"t^{degree}"
                body = power if abs(c) == 1 else f"{abs(c)} {power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def mul_add(out: list[int], s: int, a, b) -> list[int]:
    """`out += s*a*b` on coefficient lists (lowest degree first); returns `out`.

    `out` is extended as needed and updated in place; `a` and `b` are only
    read.  The result has its trailing zeros removed, so `[]` stands for 0.
    """
    if not a or not b or not s:
        return out
    width = len(a) + len(b) - 1
    if len(out) < width:
        out.extend([0] * (width - len(out)))
    for i, x in enumerate(a):
        if x:
            x *= s
            for j, y in enumerate(b, i):
                out[j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def div_exact(a, b) -> list[int]:
    """The quotient `a / b` of coefficient lists, which must divide exactly.

    Raises ZeroDivisionError when `b` is zero and ArithmeticError when a
    leading coefficient leaves a remainder or a nonzero leftover of degree
    below `b` remains.  Neither argument is modified.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    lb = len(b)
    if len(a) < lb:
        raise ArithmeticError("inexact polynomial division")
    lead = b[-1]
    if lb == 1:
        if lead == 1:
            return list(a)
        quotient = [x // lead for x in a]
        if any(q * lead != x for q, x in zip(quotient, a)):
            raise ArithmeticError("inexact polynomial division")
        return quotient
    rest = list(a)
    quotient = [0] * (len(a) - lb + 1)
    for k in range(len(quotient) - 1, -1, -1):
        top = rest[k + lb - 1]
        if top:
            q, r = divmod(top, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quotient[k] = q
            for i, y in enumerate(b, k):
                rest[i] -= q * y
    if any(rest[:lb - 1]):
        raise ArithmeticError("inexact polynomial division")
    return quotient
