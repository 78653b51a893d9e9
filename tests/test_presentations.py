"""Presentations, abelianization and the text grammar."""

import random

import pytest

from dpsurgery.knots import BraidWord, knot_group_from_braid, torus_knot
from dpsurgery.presentations import (AbelianGroup, Presentation, abelianization,
                                     exponent_matrix, parse_presentation, parse_word,
                                     simplify_presentation)
from dpsurgery.words import Word, commutator, free_reduce


TREFOIL_TEXT = "gens: a b ; rels: a b a B A B ;"


def test_abelian_group_canonical_forms():
    assert AbelianGroup.of_orders(1) == AbelianGroup()
    assert AbelianGroup.of_orders(0) == AbelianGroup(1)
    assert AbelianGroup.of_orders(3, 2) == AbelianGroup.of_orders(6)
    assert AbelianGroup.of_orders(2, 2) == AbelianGroup(0, (2, 2))
    assert AbelianGroup.of_orders(4, 2) == AbelianGroup(0, (2, 4))
    assert AbelianGroup.of_orders(0, 2) == AbelianGroup(1, (2,))
    assert str(AbelianGroup.of_orders(3, 2)) == "Z_6"
    assert str(AbelianGroup()) == "0"
    assert AbelianGroup.parse("Z + Z_2") == AbelianGroup(1, (2,))
    assert AbelianGroup.parse("Z^2") == AbelianGroup(2)
    assert AbelianGroup.parse("0") == AbelianGroup()
    assert AbelianGroup.of_orders(3, 2).order() == 6
    assert AbelianGroup(1).order() is None
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))  # violates divisibility
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


@pytest.mark.parametrize("text, message", [
    ("Z^-1 + Z_2", "cannot parse abelian group term 'Z^-1'"),
    ("Z^-1", "cannot parse abelian group term 'Z^-1'"),
    ("", "empty abelian group text"),
    ("  ", "empty abelian group text"),
    ("Z^x", "cannot parse abelian group term 'Z^x'"),
    ("Z_2.5", "cannot parse abelian group term 'Z_2.5'"),
    ("Z_-3", "cannot parse abelian group term 'Z_-3'"),
    ("Z + + Z_2", "empty abelian group term in 'Z + + Z_2'"),
    ("Q", "cannot parse abelian group term 'Q'"),
])
def test_abelian_group_parse_rejects_malformed_text(text, message):
    with pytest.raises(ValueError) as err:
        AbelianGroup.parse(text)
    assert str(err.value) == message


def test_abelian_group_parse_inverts_str():
    rng = random.Random(9001)
    assert AbelianGroup.parse("Z^3 + Z_4 + Z_6 + Z_1 + Z_0") == AbelianGroup(4, (2, 12))
    assert AbelianGroup.parse("Z^0") == AbelianGroup()
    assert AbelianGroup.parse("1") == AbelianGroup()
    for _ in range(200):
        group = AbelianGroup.of_orders(*(rng.choice([0, 0, 2, 3, 4, 5, 6, 8, 9, 12, 30])
                                         for _ in range(rng.randint(0, 6))))
        assert AbelianGroup.parse(str(group)) == group


def test_exponent_matrix_rows_are_exponent_sums():
    rng = random.Random(4242)
    for _ in range(100):
        ngens = rng.randint(1, 5)
        relators = [Word(tuple(rng.randrange(2 * ngens) for _ in range(rng.randint(0, 12))))
                    for _ in range(rng.randint(0, 6))]
        p = Presentation(tuple(f"x{i}" for i in range(ngens)), tuple(relators))
        assert exponent_matrix(p) == [[r.exponent_sum(g) for g in range(ngens)]
                                      for r in relators]


def test_parse_and_format_roundtrip():
    a, b, s = Word.gen(0), Word.gen(1), Word.gen(2)
    p = parse_presentation(TREFOIL_TEXT)
    assert p == Presentation(("a", "b"), (a * b * a * b.inverse() * a.inverse() * b.inverse(),))
    labeled = parse_presentation("gens: a b s ; rels: [a,s] , a^3 ; labels: mu1=a mu2=b s1=s ;")
    assert labeled.label("mu1") == Word.gen(0)
    assert labeled == Presentation(("a", "b", "s"), (commutator(a, s), a ** 3),
                                   (("mu1", a), ("mu2", b), ("s1", s)))
    assert parse_presentation("gens: a b ; rels: ; labels: mu1=a.B^2 ;") == \
        Presentation(("a", "b"), (), (("mu1", a * b ** -2),))


def test_parse_word_tokens():
    names = ("a", "b", "mu1")
    assert parse_word("a B", names) == Word.gen(0) * Word.gen(1, -1)
    assert parse_word("mu1^-2", names) == Word.gen(2, -2)
    comm = Word.gen(0) * Word.gen(1) * Word.gen(0, -1) * Word.gen(1, -1)
    assert parse_word("[a,b]", names) == comm
    assert parse_word("[a,b]^2", names) == comm * comm
    assert parse_word("[a,b]^-1", names) == comm.inverse()
    assert parse_word("1", names) == Word(())
    with pytest.raises(ValueError):
        parse_word("c", names)
    with pytest.raises(ValueError):
        parse_word("a^\u0663", names)  # a power is ASCII digits only


def test_validation():
    with pytest.raises(ValueError):
        Presentation(("a",), (Word.gen(1),))  # unknown generator in relator
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("a",), (), (("mu1", Word.gen(3)),))
    with pytest.raises(TypeError, match="mu1"):
        Presentation(("a",), (), (("mu1", 0),))  # a label is a Word, not an index


def test_abelianization_examples():
    assert abelianization(parse_presentation("gens: a ; rels: a^5 ;")) == AbelianGroup.of_orders(5)
    assert abelianization(parse_presentation(TREFOIL_TEXT)) == AbelianGroup(1)
    assert abelianization(parse_presentation("gens: a b ; rels: ;")) == AbelianGroup(2)


def test_abelianization_invariance():
    rng = random.Random(4)
    base = parse_presentation("gens: a b c ; rels: a^2 b^-3 , [b,c] , a c a ;")
    expected = abelianization(base)
    relators = list(base.relators)
    for _ in range(25):
        variant = relators[:]
        rng.shuffle(variant)                      # permutation
        i = rng.randrange(len(variant))
        variant[i] = variant[i].inverse()         # inversion
        j = rng.randrange(len(variant))
        conjugator = Word.gen(rng.randint(0, 2), rng.choice((1, -1)))
        variant[j] = free_reduce(conjugator * variant[j] * conjugator.inverse())
        assert abelianization(Presentation(base.generators, tuple(variant))) == expected


def test_simplify_eliminates_defined_generators():
    p = parse_presentation("gens: a b c ; rels: c a B , c^3 a ; labels: mu1=a ;")
    reduced = simplify_presentation(p)
    assert reduced.ngens < 3
    assert abelianization(reduced) == abelianization(p)


def test_simplify_keeps_protected_generator():
    p = parse_presentation("gens: a b ; rels: a b ;")
    reduced = simplify_presentation(p, keep={0})
    assert "a" in reduced.generators
    assert abelianization(reduced) == abelianization(p)


@pytest.mark.parametrize("keep", [{-1}, {2}, {0, 5}])
def test_simplify_refuses_keep_index_out_of_range(keep):
    # a negative index would otherwise keep a generator counted from the end
    p = parse_presentation("gens: a b ; rels: a b ;")
    with pytest.raises(ValueError, match="keep index"):
        simplify_presentation(p, keep=keep)


def test_simplify_preserves_group_order():
    # Tietze moves must not change the group: enumerate both presentations
    from dpsurgery.coset import coset_enumerate

    rng = random.Random(31415)
    checked = 0
    while checked < 30:
        ngens = rng.randint(2, 4)
        names = tuple("abcd"[:ngens])
        relators = []
        for _ in range(rng.randint(ngens, ngens + 2)):
            length = rng.randint(1, 5)
            word = Word.identity()
            for _ in range(length):
                word = word * Word.gen(rng.randrange(ngens), rng.choice((1, -1)))
            relators.append(free_reduce(word))
        p = Presentation(names, tuple(relators))
        before = coset_enumerate(p, (), 3000)
        if not before.completed:
            continue
        reduced = simplify_presentation(p)
        after = coset_enumerate(reduced, (), 3000)
        assert after.completed
        assert after.index == before.index, (p, reduced)
        assert abelianization(reduced) == abelianization(p)
        checked += 1


def test_label_word():
    p = parse_presentation("gens: a b ; rels: ; labels: mu1=a mu2=a.B ;")
    assert p.label("mu1") == Word.gen(0)
    assert p.label("mu2") == Word.gen(0) * Word.gen(1, -1)
    assert p.label("nope") is None


# -- Tietze cross-check --------------------------------------------------------
# The quadratic routine below is the earlier simplify_presentation, kept as
# the reference: it rescans, substitutes into and reindexes every relator in
# every round.  `_reference_substitute` is the earlier Word.substitute.

def _reference_substitute(w, images):
    parts = []
    for x in w.letters:
        image = images.get(x >> 1)
        if image is None:
            parts.append(x)
        elif x & 1:
            parts.extend(image.inverse().letters)
        else:
            parts.extend(image.letters)
    return free_reduce(Word(tuple(parts)))


def _reference_simplify(p, keep=frozenset()):
    generators = list(p.generators)
    relators = [free_reduce(r) for r in p.relators]
    keep_names = {p.generators[i] for i in keep}

    while True:
        candidate = None
        for ri, rel in enumerate(relators):
            counts = {}
            for x in rel.letters:
                counts[x >> 1] = counts.get(x >> 1, 0) + 1
            for pos, x in enumerate(rel.letters):
                g = x >> 1
                if counts[g] == 1 and generators[g] not in keep_names:
                    key = (len(rel), ri, pos)
                    if candidate is None or key < candidate[0]:
                        candidate = (key, ri, pos, g)
        if candidate is None:
            break
        _, ri, pos, g = candidate
        rel = relators[ri]
        before = Word(rel.letters[:pos])
        after = Word(rel.letters[pos + 1:])
        solved = free_reduce(before.inverse() * after.inverse())
        if rel.letters[pos] & 1:
            solved = solved.inverse()
        images = {g: solved}
        relators = [free_reduce(_reference_substitute(r, images))
                    for i, r in enumerate(relators) if i != ri]
        mapping = {old: (old if old < g else old - 1) for old in range(len(generators)) if old != g}
        generators.pop(g)
        relators = [r.reindex(mapping) for r in relators]

    relators = [r for r in relators if r.letters]
    return Presentation(tuple(generators), tuple(relators))


def _random_letters(rng, ngens, length):
    return tuple(rng.randrange(2 * ngens) for _ in range(length))


def _random_tietze_case(rng):
    """1-7 generators, unreduced relators (some reducing to empty), one-letter
    labels, word labels with a cancelling pair, and a random keep set."""
    ngens = rng.randint(1, 7)
    relators = []
    for _ in range(rng.randint(0, ngens + 3)):
        if rng.random() < 0.1:
            half = _random_letters(rng, ngens, rng.randint(0, 3))
            relators.append(Word(half) * Word(half).inverse())
        else:
            relators.append(Word(_random_letters(rng, ngens, rng.randint(1, 8))))
    labels = []
    for i in range(rng.randint(0, 3)):
        if rng.random() < 0.4:
            labels.append((f"role{i}", Word.gen(rng.randrange(ngens))))
            continue
        letters = list(_random_letters(rng, ngens, rng.randint(0, 5)))
        if rng.random() < 0.5:
            x = rng.randrange(2 * ngens)
            at = rng.randint(0, len(letters))
            letters[at:at] = [x, x ^ 1]
        labels.append((f"role{i}", Word(tuple(letters))))
    rng.shuffle(labels)
    keep = {g for g in range(ngens) if rng.random() < 0.2}
    names = tuple(f"x{g}" for g in range(ngens))
    return Presentation(names, tuple(relators), tuple(labels)), keep


def _random_knot_braids(count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(2, 5)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(1, 14)))
        braid = BraidWord(strands, letters)
        if braid.is_knot_closure():
            found.append(braid)
    return found


# T(2,3) ... T(2,31) and 200 random knot braids
KNOT_GROUPS = [knot_group_from_braid(braid) for braid in
               [torus_knot(r) for r in range(1, 16)] + _random_knot_braids(200, seed=1618)]


def _tietze_cases():
    rng = random.Random(2718)
    cases = [_random_tietze_case(rng) for _ in range(2000)]
    # the meridian of a knot group is generator 0
    return cases + [(knot.presentation, {0}) for knot in KNOT_GROUPS]


TIETZE_CASES = _tietze_cases()


def test_simplify_matches_the_quadratic_reference():
    eliminated = 0
    for p, keep in TIETZE_CASES:
        reduced = simplify_presentation(p, keep)
        assert reduced == _reference_simplify(p, keep), (p, sorted(keep))
        eliminated += reduced.ngens < p.ngens
    # the cases exercise the elimination rounds, not only the early exit
    assert eliminated > len(TIETZE_CASES) // 2


def test_simplified_knot_groups_keep_the_meridian_at_generator_0():
    # KnotGroupData validates each result: generator 0 still generates the
    # infinite cyclic abelianization
    for knot in KNOT_GROUPS:
        small = knot.simplified()
        assert small.presentation.generators[0] == "x0", knot.presentation


def test_simplify_is_idempotent():
    for p, keep in TIETZE_CASES:
        once = simplify_presentation(p, keep)
        kept = {once.generators.index(p.generators[g]) for g in keep}
        assert simplify_presentation(once, kept) == once, (p, sorted(keep))
