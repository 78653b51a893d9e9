"""Bounded Todd-Coxeter coset enumeration, deduction-first (Felsch) strategy.

The table's columns are the word letters (column 2i is generator i, column
2i+1 its inverse, x ^ 1 the inverse column of x), so relators and subgroup
generators are scanned straight from `Word.letters`.  New cosets are only
introduced at the first undefined table entry once all pending deductions
have been processed, which makes runs deterministic for a fixed
presentation, subgroup and cap.  The cap bounds the number of table rows
ever allocated; hitting it is reported as an inconclusive outcome, never as
a result.

Each new table entry c -x-> d is queued for deduction once, as (c, x), and
never again as (d, x ^ 1).  Nothing is lost: `edp` holds every rotation of
each relator *and* of its inverse, and `scan` closes a cycle from both
ends, so the cycles through d that start with x ^ 1 are the cycles through
c that start with x read backwards.  `coincidence` queues its transplanted
entries the same way.  `CosetResult.deductions` counts the queue entries
processed; it stays out of the evidence text.

One scan routine serves both the deduction pass and the subgroup (HLT)
fill.  It is a closure inside `coset_enumerate` over the table's row list,
union-find parents and `rep`, bound once per enumeration: almost every
entry it reads already points at a live coset, so it indexes the rows
directly and calls `rep` only for an entry whose coset has died, writing
the root back into the table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .presentations import Presentation
from .words import Word, cyclically_reduce


@dataclass(frozen=True)
class CosetResult:
    completed: bool
    index: int | None
    allocated: int
    max_cosets: int
    deductions: int

    def evidence(self) -> list[str]:
        if self.completed:
            return [f"coset enumeration completed: index {self.index} "
                    f"({self.allocated} cosets allocated, cap {self.max_cosets})"]
        return [f"coset enumeration inconclusive: table cap {self.max_cosets} "
                f"exhausted ({self.allocated} cosets allocated)"]


class _CapExceeded(Exception):
    pass


class _Table:
    def __init__(self, ncols: int, cap: int):
        self.ncols = ncols
        self.cap = cap
        self.rows: list[list[int | None]] = [[None] * ncols]
        self.parent = [0]
        self.live = 1
        self.deductions: deque[tuple[int, int]] = deque()

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(self, c: int, x: int) -> int:
        if len(self.rows) >= self.cap:
            raise _CapExceeded
        d = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.parent.append(d)
        self.live += 1
        self.set_entry(c, x, d)
        return d

    def set_entry(self, c: int, x: int, d: int):
        self.rows[c][x] = d
        self.rows[d][x ^ 1] = c
        self.deductions.append((c, x))

    def coincidence(self, a: int, b: int):
        queue: deque[int] = deque()

        def merge(x: int, y: int):
            x, y = self.rep(x), self.rep(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            self.parent[y] = x
            self.live -= 1
            queue.append(y)

        merge(a, b)
        while queue:
            dead = queue.popleft()
            row = self.rows[dead]
            for x in range(self.ncols):
                delta = row[x]
                if delta is None:
                    continue
                # detach the reverse edge before transplanting
                self.rows[delta][x ^ 1] = None
                mu, nu = self.rep(dead), self.rep(delta)
                entry = self.rows[mu][x]
                if entry is not None:
                    merge(nu, entry)
                else:
                    entry_back = self.rows[nu][x ^ 1]
                    if entry_back is not None:
                        merge(mu, entry_back)
                    else:
                        self.rows[mu][x] = nu
                        self.rows[nu][x ^ 1] = mu
                        self.deductions.append((mu, x))


def coset_enumerate(p: Presentation, subgroup: list[Word] | tuple[Word, ...] = (),
                    max_cosets: int = 100_000) -> CosetResult:
    """Index of the subgroup generated by `subgroup` words, if it completes.

    For the empty subgroup this is the group order.  Within the row cap the
    result is exact; otherwise the outcome is inconclusive.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    for w in subgroup:
        if w.max_index() >= p.ngens:
            raise ValueError("subgroup word references unknown generator")

    ncols = 2 * p.ngens
    # deduction table: every rotation of each relator and its inverse,
    # bucketed by first letter
    edp: list[list[tuple[int, ...]]] = [[] for _ in range(ncols)]
    seen = set()
    for r in p.relators:
        w = cyclically_reduce(r)
        for base in (w.letters, w.inverse().letters):
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                if rot not in seen:
                    seen.add(rot)
                    edp[rot[0]].append(rot)

    table = _Table(ncols, max_cosets)
    rows, parent, rep, deductions = table.rows, table.parent, table.rep, table.deductions

    def scan(alpha: int, word: tuple[int, ...]) -> tuple[int, int] | None:
        """Check the cyclic relation word(alpha) = alpha, deducing or merging.

        Returns the (coset, letter) entry that opens a gap of two or more
        undefined entries, where nothing can be deduced yet; None otherwise.
        An entry read through a dead coset is replaced by its live root.
        """
        if parent[alpha] != alpha:
            alpha = rep(alpha)
        f = alpha
        i = 0
        n = len(word)
        while i < n:
            row = rows[f]
            x = word[i]
            d = row[x]
            if d is None:
                break
            if parent[d] != d:
                d = row[x] = rep(d)
            f = d
            i += 1
        if i == n:
            if f != alpha:
                table.coincidence(f, alpha)
            return None
        b = alpha
        j = n - 1
        while j >= i:
            row = rows[b]
            x = word[j] ^ 1
            d = row[x]
            if d is None:
                break
            if parent[d] != d:
                d = row[x] = rep(d)
            b = d
            j -= 1
        if j < i:
            table.coincidence(f, b)
        elif j == i:
            table.set_entry(f, word[i], b)
        else:
            return f, word[i]
        return None

    processed = 0

    def process_deductions():
        nonlocal processed
        while deductions:
            c, x = deductions.popleft()
            processed += 1
            c = rep(c)
            for w in edp[x]:
                scan(c, w)

    try:
        for w in subgroup:
            # HLT fill: define cosets until the subgroup generator closes at 0
            while (gap := scan(0, w.letters)) is not None:
                table.define(*gap)
            process_deductions()
        alpha = 0
        while alpha < len(rows):
            if parent[alpha] != alpha:
                alpha += 1
                continue
            for x in range(ncols):
                if parent[alpha] != alpha:
                    break  # alpha died during processing
                if rows[alpha][x] is None:
                    table.define(alpha, x)
                    process_deductions()
            alpha += 1
    except _CapExceeded:
        return CosetResult(False, None, len(rows), max_cosets, processed)

    return CosetResult(True, table.live, len(rows), max_cosets, processed)
