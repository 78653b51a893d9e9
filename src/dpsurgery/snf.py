"""Exact integer matrix algebra: Smith normal form and cokernel invariants.

Everything here is over Z with arbitrary-precision ints; no floating point
enters at any stage.  Matrices are lists of row lists and are never mutated
by the public functions.
"""

from __future__ import annotations

from math import gcd


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Integer matrix product (used by callers to check U*M*V == D)."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def smith_normal_form(m: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*m*V == D in Smith normal form.

    D is diagonal with non-negative entries d_1 | d_2 | ... and U, V are
    unimodular.  Works for any rectangular matrix, including empty ones.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    for row in a:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        arow, urow = a[src], u[src]
        ad, ud = a[dst], u[dst]
        for k in range(cols):
            ad[k] += q * arow[k]
        for k in range(rows):
            ud[k] += q * urow[k]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # deterministic pivot: smallest |entry|, then row, then column
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # a strictly smaller remainder appeared; re-pivot

        # divisibility sweep: pivot must divide every remaining entry
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return a, u, v


def diagonal(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def cokernel_invariants(m: list[list[int]], ncols: int) -> tuple[int, tuple[int, ...]]:
    """Invariant factors of Z^ncols / rowspace(m).

    Returns (free_rank, torsion) where torsion keeps only factors >= 2,
    in divisibility order.
    """
    if not m:
        return ncols, ()
    if any(len(row) != ncols for row in m):
        raise ValueError("relation rows must have length ncols")
    d, _, _ = smith_normal_form(m)
    diag = [x for x in diagonal(d) if x != 0]
    torsion = tuple(x for x in diag if x >= 2)
    return ncols - len(diag), torsion


def determinant(m: list[list[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def element_order_in_cokernel(m: list[list[int]], ncols: int, vector: list[int]) -> int | None:
    """Order of the class of `vector` in Z^ncols / rowspace(m); None if infinite.

    With relations as row vectors, x maps to x*V in the coordinates where the
    relation lattice is spanned by d_i * e_i.
    """
    if len(vector) != ncols:
        raise ValueError("vector length must equal ncols")
    if not m:
        return None if any(vector) else 1
    d, _, v = smith_normal_form(m)
    y = [sum(vector[j] * v[j][i] for j in range(ncols)) for i in range(ncols)]
    diag = diagonal(d)
    order = 1
    for i in range(ncols):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if y[i] != 0:
                return None
        elif di > 1:
            k = di // gcd(di, y[i])
            order = order * k // gcd(order, k)
    return order
