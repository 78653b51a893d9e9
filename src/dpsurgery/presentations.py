"""Finitely presented groups: presentations, abelianization, Tietze moves.

The text form of a presentation, which `parse_presentation` reads, is

    gens: a b s ; rels: a b a B A B , [a,s] ; labels: mu1=a mu2=b ;

* generator names are identifiers; within relator words a token is either a
  generator name, the UPPERCASED name of a single-letter lowercase generator
  (meaning its inverse), `name^k` for a power (k may be negative), or the
  commutator shorthand `[x,y]` where x and y are single tokens;
* relators are comma-separated, the `labels:` section is optional and binds
  role names such as `mu1`, `mu2` to words in the same token syntax, with
  '.' joining the tokens of one word; a generator is a one-letter word.

A configuration's complement labels `mu1 … muk`, the meridians of its
components.  `format_word` prints a single word for report evidence.
"""

from __future__ import annotations

import heapq
import re
from collections import defaultdict
from dataclasses import dataclass

from .snf import cokernel_invariants
from .words import Word, commutator, free_reduce


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")

    @staticmethod
    def of_orders(*orders: int) -> "AbelianGroup":
        """Canonical form of Z_{orders[0]} + Z_{orders[1]} + ... (0 means Z)."""
        if any(q < 0 for q in orders):
            raise ValueError("orders must be non-negative")
        return AbelianGroup(*cokernel_invariants(
            [[q if i == j else 0 for j in range(len(orders))] for i, q in enumerate(orders)],
            len(orders)))

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    @staticmethod
    def parse(text: str) -> "AbelianGroup":
        """Inverse of __str__; also accepts '1' for the trivial group.

        Terms are joined by '+': `Z`, `Z^r` and `Z_q` with r, q written as
        non-negative decimal integers.
        """
        text = text.strip()
        if text in ("0", "1"):
            return AbelianGroup()
        if not text:
            raise ValueError("empty abelian group text")
        rank = 0
        orders: list[int] = []
        for part in text.split("+"):
            part = part.strip()
            if not part:
                raise ValueError(f"empty abelian group term in {text!r}")
            term = _GROUP_TERM_RE.match(part)
            if term is None:
                raise ValueError(f"cannot parse abelian group term {part!r}")
            if term["rank"] is not None:
                rank += int(term["rank"])
            elif term["order"] is not None:
                orders.append(int(term["order"]))
            else:
                rank += 1
        group = AbelianGroup.of_orders(*orders)
        return AbelianGroup(rank + group.free_rank, group.torsion)


_GROUP_TERM_RE = re.compile(r"Z(?:\^(?P<rank>[0-9]+)|_(?P<order>[0-9]+))?\Z")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()
    labels: tuple[tuple[str, Word], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        object.__setattr__(self, "labels", tuple(self.labels))
        seen = set()
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        n = len(self.generators)
        for r in self.relators:
            if r.max_index() >= n:
                raise ValueError("relator references unknown generator")
        roles = set()
        for role, target in self.labels:
            if role in roles:
                raise ValueError(f"duplicate label role {role!r}")
            roles.add(role)
            if not isinstance(target, Word):
                raise TypeError(f"label {role!r} must be a Word, got {target!r}")
            if target.max_index() >= n:
                raise ValueError(f"label {role!r} references unknown generator")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def label(self, role: str) -> Word | None:
        for name, target in self.labels:
            if name == role:
                return target
        return None


def format_word(w: Word, names: tuple[str, ...]) -> str:
    if not w.letters:
        return "1"
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        x = letters[i]
        j = i
        while j < len(letters) and letters[j] == x:
            j += 1
        count = -(j - i) if x & 1 else j - i
        name = names[x >> 1]
        if count == 1:
            parts.append(name)
        elif count == -1 and len(name) == 1 and name.islower():
            parts.append(name.upper())
        else:
            parts.append(f"{name}^{count}")
        i = j
    return " ".join(parts)


def _parse_token(token: str, index: dict[str, int]) -> Word:
    if token == "1":
        return Word.identity()
    power = 1
    m = re.match(r"^(.*)\^(-?[0-9]+)$", token)
    if m:
        token, power = m.group(1), int(m.group(2))
    m = re.match(r"^\[([^,\[\]]+),([^,\[\]]+)\]$", token)
    if m:
        base = commutator(_parse_token(m.group(1).strip(), index),
                          _parse_token(m.group(2).strip(), index))
        return free_reduce(base ** power)
    if token in index:
        return Word.gen(index[token], power)
    lower = token.lower()
    if token != lower and lower in index and len(token) == 1:
        return Word.gen(index[lower], -power)
    raise ValueError(f"unknown generator token {token!r}")


def parse_word(text: str, names: tuple[str, ...]) -> Word:
    index = {name: i for i, name in enumerate(names)}
    word = Word.identity()
    for token in text.split():
        word = word * _parse_token(token, index)
    return free_reduce(word)


def _split_outside_brackets(text: str) -> list[str]:
    """Split on commas that are not enclosed in [...] commutator brackets."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_presentation(text: str) -> Presentation:
    sections: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, body = chunk.partition(":")
        key = key.strip()
        if key not in ("gens", "rels", "labels"):
            raise ValueError(f"unknown presentation section {key!r}")
        if key in sections:
            raise ValueError(f"duplicate section {key!r}")
        sections[key] = body.strip()
    if "gens" not in sections:
        raise ValueError("missing 'gens:' section")
    names = tuple(sections["gens"].split())
    relators = []
    body = sections.get("rels", "")
    if body:
        for rel_text in _split_outside_brackets(body):
            rel_text = rel_text.strip()
            if rel_text:
                relators.append(parse_word(rel_text, names))
    labels: list[tuple[str, Word]] = []
    for item in sections.get("labels", "").split():
        role, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad label item {item!r}")
        labels.append((role, parse_word(value.replace(".", " "), names)))
    return Presentation(names, tuple(relators), tuple(labels))


# -- abelianization ---------------------------------------------------------

def exponent_matrix(p: Presentation) -> list[list[int]]:
    """One row per relator: exponent sums over each generator."""
    rows = []
    for r in p.relators:
        row = [0] * p.ngens
        for x in r.letters:
            row[x >> 1] += -1 if x & 1 else 1
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> AbelianGroup:
    free_rank, torsion = cokernel_invariants(exponent_matrix(p), p.ngens)
    return AbelianGroup(free_rank, torsion)


# -- Tietze simplification ---------------------------------------------------

def _substitute(letters: tuple[int, ...], g: int, image: tuple[int, ...],
                image_inverse: tuple[int, ...]) -> tuple[int, ...]:
    """Freely reduced `letters` with generator g replaced by `image`."""
    stack: list[int] = []
    for x in letters:
        if x >> 1 == g:
            for y in image_inverse if x & 1 else image:
                if stack and stack[-1] == y ^ 1:
                    stack.pop()
                else:
                    stack.append(y)
        elif stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def simplify_presentation(p: Presentation, keep: frozenset[int] | set[int] = frozenset()) -> Presentation:
    """Eliminate generators that some relator defines in terms of the others.

    A generator g not in `keep` is eliminable at a position of a relator
    where it is the only occurrence of g; the relator then solves for g and
    the solution is substituted in every other relator.  The group is
    unchanged up to isomorphism.  The surviving generators keep their
    order, and the result carries no labels.

    Each round eliminates via the shortest relator that has an eliminable
    position, the earliest of those in relator order, at its first
    eligible position; rounds go on until no relator has one.

    Bookkeeping, so that a round touches only what its elimination
    changes: relators keep their input index as a stable id and generators
    keep their input index until one reindex at the end; an index maps
    each generator to the relators it occurs in, and only those relators
    are rewritten.  Every relator caches its first eligible position,
    recomputed only when the relator changes, and a heap keyed by
    (length, id) over the relators with such a position yields each
    round's pick.  Removing a relator keeps the others in order, so
    (length, id) orders the relators as their current positions would.
    A `keep` index outside 0..ngens-1 raises ValueError.
    """
    outside = [i for i in keep if not 0 <= i < p.ngens]
    if outside:
        raise ValueError(f"keep index {min(outside)} out of range for {p.ngens} generators")
    kept = [g in keep for g in range(p.ngens)]
    relators: list[tuple[int, ...] | None] = [free_reduce(r).letters for r in p.relators]
    relators_of: dict[int, set[int]] = defaultdict(set)
    for rid, letters in enumerate(relators):
        for x in letters:
            relators_of[x >> 1].add(rid)
    first: list[int | None] = [None] * len(relators)
    heap: list[tuple[int, int]] = []

    def refresh(rid: int) -> None:
        letters = relators[rid]
        counts: dict[int, int] = {}
        for x in letters:
            counts[x >> 1] = counts.get(x >> 1, 0) + 1
        for pos, x in enumerate(letters):
            if counts[x >> 1] == 1 and not kept[x >> 1]:
                first[rid] = pos
                heapq.heappush(heap, (len(letters), rid))
                return
        first[rid] = None

    for rid in range(len(relators)):
        refresh(rid)

    eliminated = [False] * len(kept)
    while heap:
        length, rid = heapq.heappop(heap)
        letters = relators[rid]
        if letters is None or first[rid] is None or len(letters) != length:
            continue  # a stale entry: the relator was used or has changed
        pos = first[rid]
        g = letters[pos] >> 1
        # letters = before x after with x = g^(+-1), so x = (after before)^-1
        rest = free_reduce(Word(letters[pos + 1:] + letters[:pos])).letters
        inverse = tuple(x ^ 1 for x in reversed(rest))
        image, image_inverse = (rest, inverse) if letters[pos] & 1 else (inverse, rest)
        relators[rid] = None
        for h in {x >> 1 for x in letters}:
            relators_of[h].discard(rid)
        for other in relators_of.pop(g):
            old = relators[other]
            new = _substitute(old, g, image, image_inverse)
            relators[other] = new
            old_gens, new_gens = {x >> 1 for x in old}, {x >> 1 for x in new}
            for h in old_gens - new_gens:
                relators_of[h].discard(other)
            for h in new_gens - old_gens:
                relators_of[h].add(other)
            refresh(other)
        eliminated[g] = True

    generators = []
    new_index = [0] * len(kept)
    for old, name in enumerate(p.generators):
        if not eliminated[old]:
            new_index[old] = len(generators)
            generators.append(name)

    def reindex(letters: tuple[int, ...]) -> Word:
        return Word(tuple(2 * new_index[x >> 1] + (x & 1) for x in letters))

    return Presentation(tuple(generators),
                        tuple(reindex(letters) for letters in relators if letters))
