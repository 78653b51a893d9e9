"""Knuth-Bendix completion and the abelianness certificate."""

import random

from dpsurgery.presentations import parse_presentation
from dpsurgery.rewriting import knuth_bendix, shortlex_key
from dpsurgery.verify import Status, certify_abelian
from dpsurgery.words import Word, free_reduce


def test_shortlex_places_inverse_after_generator():
    # letters: a=0, a^-1=1, b=2, b^-1=3
    assert shortlex_key((0,)) < shortlex_key((1,)) < shortlex_key((2,)) < shortlex_key((3,))
    assert shortlex_key((3,)) < shortlex_key((0, 0))


def test_letters_roundtrip():
    # the rewriting alphabet is Word.letters itself
    word = Word.gen(0) * Word.gen(1, -1) * Word.gen(0, -1)
    assert word.letters == (0, 3, 1)
    assert word.inverse().letters == (0, 2, 1)
    assert free_reduce(Word((0, 1, 2))).letters == (2,)


def test_free_group_system_is_confluent():
    system = knuth_bendix(parse_presentation("gens: a b ; rels: ;"), 50)
    assert system.confluent
    assert system.reduce((0, 1, 2, 3)) == ()
    assert system.reduce((0, 2)) == (0, 2)


def test_reduction_is_sound():
    # every rule follows from the relators, so reduction must preserve the
    # image in the abelianization (a cheap invariant of the group element)
    p = parse_presentation("gens: a b ; rels: a^2 b^-3 ;")
    system = knuth_bendix(p, 100)
    rng = random.Random(11)
    for _ in range(100):
        letters = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 10)))
        reduced = system.reduce(letters)

        def ab(w):
            total_a = sum(1 if x == 0 else -1 if x == 1 else 0 for x in w)
            total_b = sum(1 if x == 2 else -1 if x == 3 else 0 for x in w)
            # relation 2a = 3b: use coordinates (a mod ?, ...) via 3a' = ...
            # in Z = <g> with a = 3g, b = 2g  (abelianization of <a,b | a^2 b^-3>)
            return 3 * total_a + 2 * total_b

        assert ab(letters) == ab(reduced)


def test_certify_abelian_free_abelian():
    verdict = certify_abelian(parse_presentation("gens: a b ; rels: [a,b] ;"), 100)
    assert verdict.status is Status.ISOMORPHIC


def test_certify_abelian_central_meridian():
    p = parse_presentation("gens: a b s ; rels: a b a B A B , [a,s] , [b,s] , a s^2 ;")
    verdict = certify_abelian(p, 500)
    assert verdict.status is Status.ISOMORPHIC


def test_certify_abelian_rejects_or_gives_up_on_trefoil():
    p = parse_presentation("gens: a b ; rels: a b a B A B ;")
    verdict = certify_abelian(p, 120)
    # the trefoil group is nonabelian; the bounded certificate must never
    # claim otherwise (either refutes via confluence or gives up)
    assert verdict.status is not Status.ISOMORPHIC


def test_certify_free_group_refuted_by_confluence():
    verdict = certify_abelian(parse_presentation("gens: a b ; rels: ;"), 50)
    assert verdict.status is Status.NOT_ISOMORPHIC


def test_rule_cap_respected():
    p = parse_presentation("gens: a b ; rels: a b a B A B ;")
    system = knuth_bendix(p, 30)
    assert system.rules_admitted <= 30
    assert not system.confluent


def count_normal_forms(system, nletters, cap=10_000):
    """BFS over irreducible words; finite exactly when the group is."""
    from collections import deque

    seen = {()}
    queue = deque([()])
    while queue:
        w = queue.popleft()
        for x in range(nletters):
            cand = w + (x,)
            if system.reduce(cand) == cand and cand not in seen:
                seen.add(cand)
                queue.append(cand)
                if len(seen) > cap:
                    return None
    return len(seen)


def test_confluent_normal_forms_match_enumeration():
    # two fully independent engines must agree on the group order
    from dpsurgery.coset import coset_enumerate

    for text, order in [
        ("gens: a b ; rels: a^3 , b^2 , a b a b ;", 6),
        ("gens: r s ; rels: r^4 , s^2 , s r s r ;", 8),
        ("gens: a b ; rels: a^2 , b^3 , [a,b] ;", 6),
        ("gens: a b ; rels: a^4 , a^2 B^2 , b a b^-1 a ;", 8),
    ]:
        p = parse_presentation(text)
        system = knuth_bendix(p, 200)
        assert system.confluent
        assert count_normal_forms(system, 2 * p.ngens) == order
        result = coset_enumerate(p, (), 1000)
        assert result.completed and result.index == order
