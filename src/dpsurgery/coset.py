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

Table invariant: whenever `coincidence` is not running, every entry of a
live row is None or a live coset, and c -x-> d exactly when d -x^1-> c.
`define` and `set_entry` write an entry and its reverse together, into two
empty slots of live rows.  `coincidence` writes the same pairs, between
cosets live at that moment.  When it takes a dead coset y off its queue it
clears the reverse of every entry in y's row; by the pair rule those are
all the entries that point at y, and none is written afterwards, since y
is no longer a root.  It returns only when every coset it killed has been
taken off the queue.

One scan routine, `scan(alpha, words)`, serves both the deduction pass and
the subgroup (HLT) fill: a deduction (c, x) is one call over every
rotation that starts with x, and the fill calls it with one subgroup word
and defines the gap it returns.  It is a closure inside `coset_enumerate`
over the table's row list and union-find, bound once per enumeration.  By
the invariant a walk from a live coset meets only live cosets, so it
indexes the rows with no union-find lookup per letter.  Only the start is
resolved, before each word: a coincidence found by one rotation can kill
it before the next.

Each cyclically reduced relator and its inverse is stored once, doubled; a
rotation is a span `(doubled, k, k + n)` of that copy, so the rotation
buckets take O(total relator length), not its square.  A base word adds
its rotations 0 .. period-1, in that order, unless a rotation of an earlier
base already did; that is decided on the least rotation, found one
rotation at a time.
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


# (letters, start, end): the word letters[start:end], read in place
_Span = tuple[tuple[int, ...], int, int]


def _relator_rotations(relators: tuple[Word, ...], ncols: int) -> list[list[_Span]]:
    """Every distinct rotation of each relator and its inverse, bucketed by first letter.

    A rotation is the span `(doubled, k, k + n)`: letters k .. k+n-1 of the
    base word stored twice over.
    """
    edp: list[list[_Span]] = [[] for _ in range(ncols)]
    seen: set[tuple[int, ...]] = set()
    for r in relators:
        w = cyclically_reduce(r)
        n = len(w.letters)
        if not n:
            continue
        for base in (w.letters, w.inverse().letters):
            doubled = base + base
            # the least rotation among the first `period` ones, which repeat
            least, period = base, n
            for k in range(1, n):
                rot = doubled[k:k + n]
                if rot == base:
                    period = k
                    break
                if rot < least:
                    least = rot
            if least in seen:
                continue
            seen.add(least)
            for k in range(period):
                edp[base[k]].append((doubled, k, k + n))
    return edp


def coset_enumerate(p: Presentation, subgroup: list[Word] | tuple[Word, ...],
                    max_cosets: int) -> CosetResult:
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
    edp = _relator_rotations(p.relators, ncols)

    table = _Table(ncols, max_cosets)
    rows, parent, rep, deductions = table.rows, table.parent, table.rep, table.deductions
    coincidence, set_entry = table.coincidence, table.set_entry

    def scan(alpha: int, words: list[_Span] | tuple[_Span, ...]) -> tuple[int, int] | None:
        """Check the cyclic relations word(alpha) = alpha, deducing or merging.

        Returns the (coset, letter) entry at which the last word that could
        deduce nothing opens a gap of two or more undefined entries; None if
        no word did.
        """
        gap = None
        for word, start, end in words:
            # a coincidence found by the previous word can kill alpha
            if parent[alpha] != alpha:
                alpha = rep(alpha)
            f = alpha
            i = start
            while i < end:
                d = rows[f][word[i]]
                if d is None:
                    break
                f = d
                i += 1
            else:
                if f != alpha:
                    coincidence(f, alpha)
                continue
            b = alpha
            j = end - 1
            while j >= i:
                d = rows[b][word[j] ^ 1]
                if d is None:
                    break
                b = d
                j -= 1
            if j < i:
                coincidence(f, b)
            elif j == i:
                set_entry(f, word[i], b)
            else:
                gap = f, word[i]
        return gap

    processed = 0

    def process_deductions():
        nonlocal processed
        popleft = deductions.popleft
        while deductions:
            c, x = popleft()
            processed += 1
            scan(c, edp[x])

    try:
        for w in subgroup:
            # HLT fill: define cosets until the subgroup generator closes at 0
            fill = ((w.letters, 0, len(w.letters)),)
            while (gap := scan(0, fill)) is not None:
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
