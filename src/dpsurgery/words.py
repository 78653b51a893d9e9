"""Words in a finitely generated free group.

A letter is an int: 2*g is generator g and 2*g + 1 its inverse, so x ^ 1
is the inverse of letter x, x >> 1 its generator and x & 1 whether it is
inverted.  A word is a tuple of letters; the empty word is the identity.
This is the alphabet of the coset table's columns and of the rewriting
system, so both engines read `Word.letters` as they are.  Words are
immutable and all operations return fresh values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.letters and min(self.letters) < 0:
            raise ValueError(f"negative letter in {self.letters}")

    @staticmethod
    def gen(index: int, power: int = 1) -> "Word":
        if index < 0:
            raise ValueError(f"negative generator index {index}")
        if power >= 0:
            return Word((2 * index,) * power)
        return Word((2 * index + 1,) * (-power))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(x ^ 1 for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def exponent_sum(self, index: int) -> int:
        return self.letters.count(2 * index) - self.letters.count(2 * index + 1)

    def max_index(self) -> int:
        """Largest generator index appearing, or -1 for the identity."""
        return max(self.letters) >> 1 if self.letters else -1

    def reindex(self, mapping: dict[int, int]) -> "Word":
        return Word(tuple(2 * mapping[x >> 1] + (x & 1) for x in self.letters))


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w in the free group."""
    stack: list[int] = []
    for x in w.letters:
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return Word(tuple(stack))


def cyclically_reduce(w: Word) -> Word:
    """Conjugacy representative: freely reduce, then cancel across the ends."""
    letters = free_reduce(w).letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == letters[j - 1] ^ 1:
        i += 1
        j -= 1
    return Word(letters[i:j])


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return free_reduce(x * y * x.inverse() * y.inverse())
