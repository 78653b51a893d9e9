"""Bounded Knuth-Bendix completion for group presentations, shortlex order.

The alphabet is `Word.letters`: 0..2g-1 with letter 2i the i-th generator
and 2i+1 its inverse, so the shortlex order places each inverse immediately
after its generator and relators enter the system without re-encoding.
Rules always rewrite shortlex-downward, hence every rewrite terminates; a
rule set need not be confluent to be useful: any reduction of a word to the
empty string is already a proof that the word is trivial in the group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .presentations import Presentation
from .words import cyclically_reduce


Letters = tuple[int, ...]


def shortlex_key(w: Letters) -> tuple[int, Letters]:
    return (len(w), w)


@dataclass
class RewriteSystem:
    """A shortlex-decreasing string rewriting system over 2g letters."""

    nletters: int
    confluent: bool = False
    rules_admitted: int = 0
    _rules: list[tuple[Letters, Letters] | None] = field(default_factory=list)
    _by_last: dict[int, list[int]] = field(default_factory=dict)

    @property
    def rules(self) -> list[tuple[Letters, Letters]]:
        return [r for r in self._rules if r is not None]

    def _live_indices(self) -> list[int]:
        return [i for i, r in enumerate(self._rules) if r is not None]

    def _admit(self, lhs: Letters, rhs: Letters) -> int:
        index = len(self._rules)
        self._rules.append((lhs, rhs))
        self._by_last.setdefault(lhs[-1], []).append(index)
        self.rules_admitted += 1
        return index

    def _kill(self, index: int):
        rule = self._rules[index]
        if rule is not None:
            self._rules[index] = None
            self._by_last[rule[0][-1]].remove(index)

    def reduce(self, w: Letters) -> Letters:
        """Normal form of w under leftmost suffix rewriting (deterministic)."""
        rules = self._rules
        by_last = self._by_last
        stack = list(reversed(w))
        out: list[int] = []
        while stack:
            out.append(stack.pop())
            while out:
                candidates = by_last.get(out[-1])
                if not candidates:
                    break
                hit = None
                for k in candidates:
                    lhs, rhs = rules[k]
                    n = len(lhs)
                    if len(out) >= n and tuple(out[-n:]) == lhs:
                        hit = (n, rhs)
                        break
                if hit is None:
                    break
                n, rhs = hit
                del out[-n:]
                stack.extend(reversed(rhs))
        return tuple(out)


def knuth_bendix(p: Presentation, max_rules: int = 500) -> RewriteSystem:
    """Complete the presentation's rule set, stopping at the rule cap.

    `max_rules` caps the total number of oriented rules ever admitted; the
    returned system's `confluent` flag is set only when every critical pair
    resolved with the cap unhit.
    """
    system = RewriteSystem(2 * p.ngens)
    equations: deque[tuple[Letters, Letters]] = deque()
    pairs: deque[tuple[int, int]] = deque()
    capped = False

    def add_equation(a: Letters, b: Letters) -> bool:
        """Returns False when the rule cap prevented admitting a new rule."""
        a = system.reduce(a)
        b = system.reduce(b)
        if a == b:
            return True
        lhs, rhs = (a, b) if shortlex_key(a) > shortlex_key(b) else (b, a)
        if system.rules_admitted >= max_rules:
            return False
        new_index = system._admit(lhs, rhs)
        # interreduce older rules against the new one
        for k in system._live_indices():
            if k == new_index:
                continue
            l2, r2 = system._rules[k]
            if _contains(l2, lhs):
                system._kill(k)
                equations.append((l2, r2))
            else:
                r2_reduced = system.reduce(r2)
                if r2_reduced != r2:
                    system._rules[k] = (l2, r2_reduced)
        for k in system._live_indices():
            pairs.append((new_index, k))
            if k != new_index:
                pairs.append((k, new_index))
        return True

    for i in range(p.ngens):
        add_equation((2 * i, 2 * i + 1), ())
        add_equation((2 * i + 1, 2 * i), ())
    for r in p.relators:
        w = cyclically_reduce(r)
        equations.append((w.letters, ()))
        equations.append((w.inverse().letters, ()))

    while equations or pairs:
        while equations:
            a, b = equations.popleft()
            if not add_equation(a, b):
                capped = True
                break
        if capped:
            break
        if not pairs:
            break
        i, j = pairs.popleft()
        if system._rules[i] is None or system._rules[j] is None:
            continue
        l1, r1 = system._rules[i]
        l2, r2 = system._rules[j]
        top = min(len(l1), len(l2))
        if i == j:
            top = len(l1) - 1
        for k in range(1, top + 1):
            if l1[len(l1) - k:] != l2[:k]:
                continue
            left = system.reduce(r1 + l2[k:])
            right = system.reduce(l1[:len(l1) - k] + r2)
            if left != right:
                equations.append((left, right))

    system.confluent = not capped and not equations and not pairs
    return system


def _contains(haystack: Letters, needle: Letters) -> bool:
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))
