"""Free-group word arithmetic."""

import random

import pytest

from dpsurgery.words import Word, commutator, cyclically_reduce, free_reduce


a, b, c = Word.gen(0), Word.gen(1), Word.gen(2)
A, B = Word.gen(0, -1), Word.gen(1, -1)


def test_cancel_adjacent_inverse():
    assert free_reduce(a * A) == Word(())


def test_single_cancellation():
    assert free_reduce(a * b * B * a) == a * a


def test_nested_cancellation():
    assert free_reduce(a * B * b * A) == Word(())


def test_free_reduce_idempotent_and_shrinking():
    rng = random.Random(99)
    for _ in range(200):
        word = Word.identity()
        for _ in range(rng.randint(0, 12)):
            word = word * Word.gen(rng.randint(0, 2), rng.choice((1, -1)))
        once = free_reduce(word)
        assert free_reduce(once) == once
        assert len(once) <= len(word)


def test_inverse_and_power():
    word = a * B
    assert word.inverse() == b * A
    assert free_reduce(word * word.inverse()) == Word(())
    assert word ** 2 == a * B * a * B
    assert word ** -1 == word.inverse()
    assert Word.gen(2, -3) == c.inverse() * c.inverse() * c.inverse()


def test_letter_encoding():
    # letter 2g is generator g, 2g+1 its inverse, x ^ 1 the inverse letter
    assert (a * B * Word.gen(2, -1) * c).letters == (0, 3, 5, 4)
    assert Word.gen(3, -2).letters == (7, 7)
    assert Word((0, 3)).inverse().letters == (2, 1)


def test_commutator_convention():
    # [x, y] = x y x^-1 y^-1
    assert commutator(a, b) == a * b * A * B
    assert commutator(a, a) == Word(())


def test_exponent_sum():
    word = a * b * a * B * A
    assert word.exponent_sum(0) == 1
    assert word.exponent_sum(1) == 0
    assert word.exponent_sum(2) == 0


def test_max_index():
    assert Word.identity().max_index() == -1
    assert (a * Word.gen(3, -1)).max_index() == 3


def test_cyclic_reduction():
    assert cyclically_reduce(a * b * A) == b
    assert cyclically_reduce(a * a) == a * a


def test_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word((-1,))
    with pytest.raises(ValueError):
        Word.gen(-1)
    with pytest.raises(TypeError):
        Word(((0, 1),))  # a (generator, sign) pair is not a letter
