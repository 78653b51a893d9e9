"""Exact integer matrix algebra: Smith normal form and cokernel invariants.

Everything here is over Z with arbitrary-precision ints; no floating point
enters at any stage.  Matrices are lists of row lists and are never mutated
by the public functions.

One elimination loop, ``_eliminate``, serves every routine; it applies its
row operations to ``U`` and its column operations to ``V`` only when the
caller passes them:

* ``smith_normal_form`` keeps both, for the ``snf`` command's ``(D, U, V)``;
* ``cokernel_map`` keeps ``V`` only, to carry vectors into the coordinates
  where the relation lattice is spanned by ``d_i * e_i``; it gives the whole
  quotient map, free coordinates included, which `verify` reads for the
  commutator-subgroup route and for the infinite cyclic check, and
  ``element_order_in_cokernel`` reads a vector's class off it;
* ``cokernel_invariants`` (and through it ``abelianization``,
  ``complement_h1`` and ``AbelianGroup.of_orders``) keeps neither.

The two cokernel routines eliminate the distinct nonzero rows of the
relation matrix only.  Z^n / rowspace(M) depends on the row space alone,
which neither a zero row nor a second copy of a row changes; a presentation's
commutator relators give zero rows, and on large configuration groups they
are most of the matrix.

``determinant`` has no elimination of its own: it runs
``laurent.laurent_determinant``, the package's one Bareiss elimination, on
the matrix's entries as constant polynomials.
"""

from __future__ import annotations

from math import gcd

from .laurent import laurent_determinant


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Integer matrix product (used by callers to check U*M*V == D)."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def _eliminate(a: list[list[int]], cols: int, u: list[list[int]] | None = None,
               v: list[list[int]] | None = None) -> list[list[int]]:
    """Reduce `a` in place to Smith normal form and return it.

    Row operations are applied to `u` and column operations to `v` as well,
    each only when given; started from identities, they keep u*m*v == a
    for the original matrix m.
    """
    rows = len(a)

    def add_row(src, dst, q):
        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        if u is not None:
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        if v is not None:
            for row in v:
                row[dst] += q * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # deterministic pivot: smallest |entry|, then row, then column; no
        # entry is smaller than a unit, so the first unit ends the search
        pi = pj = -1
        best = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best == 0 or abs(x) < best):
                    pi, pj, best = i, j, abs(x)
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            if v is not None:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]

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
        p = a[t][t]
        if p != 1:
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in a[i][t + 1:])), None)
            if offender is not None:
                add_row(offender, t, 1)
                continue
        t += 1
    return a


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
    return _eliminate(a, cols, u, v), u, v


def diagonal(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def _relation_rows(m: list[list[int]], ncols: int) -> list[list[int]]:
    """The distinct nonzero rows of m: the same row space, so the same cokernel."""
    if any(len(row) != ncols for row in m):
        raise ValueError("relation rows must have length ncols")
    return [list(row) for row in dict.fromkeys(tuple(row) for row in m if any(row))]


def cokernel_invariants(m: list[list[int]], ncols: int) -> tuple[int, tuple[int, ...]]:
    """Invariant factors of Z^ncols / rowspace(m).

    Returns (free_rank, torsion) where torsion keeps only factors >= 2,
    in divisibility order.
    """
    a = _relation_rows(m, ncols)
    diag = [x for x in diagonal(_eliminate(a, ncols)) if x != 0]
    torsion = tuple(x for x in diag if x >= 2)
    return ncols - len(diag), torsion


def determinant(m: list[list[int]]) -> int:
    """Exact determinant: the Bareiss elimination of `laurent` on constants."""
    det = laurent_determinant([[[x] if x else [] for x in row] for row in m])
    return det.coeffs[0] if det else 0


def element_order_in_cokernel(m: list[list[int]], ncols: int, vector: list[int]) -> int | None:
    """Order of the class of `vector` in Z^ncols / rowspace(m); None if infinite.

    The class is sum_j vector[j] * images[j] in the coordinates of
    `cokernel_map`: infinite when a free coordinate is nonzero, else the lcm
    over the factors f of f / gcd(f, coordinate).
    """
    if len(vector) != ncols:
        raise ValueError("vector length must equal ncols")
    factors, images = cokernel_map(m, ncols)
    order = 1
    for i, f in enumerate(factors):
        y = sum(x * image[i] for x, image in zip(vector, images))
        if f == 0:
            if y:
                return None
        else:
            k = f // gcd(f, y)
            order = order * k // gcd(order, k)
    return order


def cokernel_map(m: list[list[int]], ncols: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The quotient map onto Z^ncols / rowspace(m).

    Returns (factors, images): the invariant factors >= 2 followed by a 0
    for each free coordinate, and for each basis vector e_j its class in
    those coordinates (row j of V, reduced modulo each factor >= 2 and read
    as an integer in a free one).  The cokernel is finite exactly when no
    factor is 0.
    """
    a = _relation_rows(m, ncols)
    v = _identity(ncols)
    diag = diagonal(_eliminate(a, ncols, v=v))
    diag += [0] * (ncols - len(diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    return (tuple(diag[i] for i in keep),
            [tuple(row[i] % diag[i] if diag[i] else row[i] for i in keep) for row in v])
