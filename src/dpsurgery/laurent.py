"""Integer Laurent polynomials in one variable, exact and immutable.

`LaurentPoly.format` lists the terms in ascending degree, e.g.
`t^-1 - 1 + t`; the zero polynomial prints as `0`.

Dense arithmetic lives in one kernel on plain coefficient lists, lowest
degree first, with no trailing zero; `[]` is the zero polynomial.
`mul_add` is the one multiply-accumulate (`out += s*a*b`) and `div_exact`
the one exact division.  `LaurentPoly.__mul__` and `laurent_determinant`
both run on it.

`laurent_determinant` is the package's one exact determinant, a
fraction-free Bareiss elimination: each update
a_ij <- (a_ij a_kk - a_ik a_kj) / a_{k-1,k-1} is one multiply-accumulate
and one exact division.  `alexander` runs it on crossing matrices, and
`snf.determinant` on integer matrices given as constant polynomials.
Crossing matrices are sparse, so the update is skipped when a_ij = 0 and
a_ik = 0 or a_kj = 0: its numerator is then the zero polynomial, and zero
divided by the nonzero previous pivot is exactly zero, so the skip changes
no entry.  Pivots are chosen by sparsity (Markowitz's rule, stated in the
function's docstring): pivoting on the diagonal lets the three-entry rows
of a crossing matrix fill in, and a sparse pivot leaves more updates to skip.
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
