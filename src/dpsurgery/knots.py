"""Knot input as braid words; diagrams and Wirtinger presentations.

Braid words use signed 1-based generator indices, so `B3: 1 -2 1 -2` is the
word s1 s2^-1 s1 s2^-1 on three strands.  Only braids whose closure is a
knot (single-cycle permutation) are accepted as knot input.  Generator 0 of
a knot group is its meridian muK: the surgery relators read the meridian and
nothing else of the knot's peripheral data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .presentations import Presentation, exponent_matrix, simplify_presentation
from .snf import cokernel_map
from .words import Word, free_reduce

_INTEGER = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """An optional '-' and ASCII digits, nothing else; ValueError otherwise.

    Reads argv values, JSON integer strings, braid words, `snf` rows and
    the bounds flags.  `int()` would also take underscores, surrounding
    spaces, a '+' and non-ASCII digits.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be >= 1")
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        for x in self.letters:
            if x == 0 or abs(x) >= self.strands:
                raise ValueError(f"braid letter {x} out of range for {self.strands} strands")

    def permutation(self) -> tuple[int, ...]:
        perm = list(range(self.strands))
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def is_knot_closure(self) -> bool:
        perm = self.permutation()
        seen = 1
        at = perm[0]
        while at != 0:
            at = perm[at]
            seen += 1
        return seen == self.strands

    def format(self) -> str:
        return f"B{self.strands}: {' '.join(str(x) for x in self.letters)}".rstrip()

    @staticmethod
    def parse(text: str) -> "BraidWord":
        text = text.strip()
        if not text.startswith("B"):
            raise ValueError(f"braid word must start with 'B<strands>:', got {text!r}")
        head, _, rest = text.partition(":")
        try:
            strands = parse_int(head[1:].strip())
        except ValueError:
            raise ValueError(f"bad strand count in {text!r}") from None
        letters = []
        for tok in rest.split():
            try:
                letters.append(parse_int(tok))
            except ValueError:
                raise ValueError(f"bad braid letter {tok!r} in {text!r}") from None
        return BraidWord(strands, tuple(letters))


@dataclass(frozen=True)
class Crossing:
    over: int
    under_in: int
    under_out: int
    sign: int


@dataclass(frozen=True)
class KnotDiagram:
    arcs: int
    crossings: tuple[Crossing, ...]


def braid_to_diagram(b: BraidWord) -> KnotDiagram:
    """Diagram of the braid closure: one crossing per letter.

    Raises ValueError when the closure has more than one component.
    """
    if not b.is_knot_closure():
        raise ValueError("braid closure is not a knot (multiple components)")

    n = b.strands
    next_arc = n
    current = list(range(n))
    raw: list[tuple[int, int, int, int]] = []
    for x in b.letters:
        i = abs(x) - 1
        if x > 0:
            over, under_in = current[i], current[i + 1]
        else:
            over, under_in = current[i + 1], current[i]
        new_arc = next_arc
        next_arc += 1
        raw.append((over, under_in, new_arc, 1 if x > 0 else -1))
        if x > 0:
            current[i + 1], current[i] = over, new_arc
        else:
            current[i], current[i + 1] = over, new_arc

    # close the braid: bottom endpoints rejoin the top arcs
    parent = list(range(next_arc))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pos in range(n):
        ra, rb = find(current[pos]), find(pos)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    reps = sorted({find(a) for a in range(next_arc)})
    rename = {rep: i for i, rep in enumerate(reps)}
    crossings = tuple(Crossing(rename[find(o)], rename[find(u)], rename[find(v)], s)
                      for o, u, v, s in raw)
    return KnotDiagram(len(reps), crossings)


@dataclass(frozen=True)
class KnotGroupData:
    """Knot group presentation whose generator 0 is the meridian."""

    presentation: Presentation

    def __post_init__(self):
        # the meridian must generate the (infinite cyclic) abelianization
        p = self.presentation
        factors, images = cokernel_map(exponent_matrix(p), p.ngens)
        if factors != (0,):
            raise ValueError("a knot group abelianizes to the infinite cyclic group")
        if images[0] not in ((1,), (-1,)):
            raise ValueError("meridian does not generate the abelianization")

    def simplified(self) -> "KnotGroupData":
        """Tietze-reduced copy; the meridian generator 0 is never eliminated
        and, generators keeping their order, stays generator 0."""
        return KnotGroupData(simplify_presentation(self.presentation, keep={0}))


def wirtinger_presentation(d: KnotDiagram) -> KnotGroupData:
    """One generator per arc, one conjugation relator per crossing.

    The meridian is the generator of arc 0.
    """
    names = tuple(f"x{i}" for i in range(d.arcs))
    relators = []
    for c in d.crossings:
        over = Word.gen(c.over, c.sign)
        rel = over * Word.gen(c.under_in) * over.inverse() * Word.gen(c.under_out, -1)
        relators.append(free_reduce(rel))
    return KnotGroupData(Presentation(names, tuple(relators)))


def knot_group_from_braid(b: BraidWord) -> KnotGroupData:
    return wirtinger_presentation(braid_to_diagram(b))


UNKNOT = BraidWord(1, ())
TREFOIL = BraidWord(2, (1, 1, 1))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))


def torus_knot(r: int) -> BraidWord:
    """The (2, 2r+1) torus knot as the closure of s1^(2r+1)."""
    if r < 1:
        raise ValueError("torus knot parameter must be >= 1")
    return BraidWord(2, (1,) * (2 * r + 1))
