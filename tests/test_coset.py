"""Coset enumeration against brute-force permutation-group oracles."""

import random

import pytest

from dpsurgery.coset import _Table, coset_enumerate
from dpsurgery.presentations import Presentation, parse_presentation
from dpsurgery.rewriting import knuth_bendix
from dpsurgery.words import Word


def coxeter_symmetric(n):
    """S_n on the adjacent transpositions s0 .. s(n-2)."""
    k = n - 1
    rels = [f"s{i}^2" for i in range(k)]
    rels += [f"s{i} s{i + 1} s{i} s{i + 1} s{i} s{i + 1}" for i in range(k - 1)]
    rels += [f"s{i} s{j} s{i} s{j}" for i in range(k) for j in range(i + 2, k)]
    gens = " ".join(f"s{i}" for i in range(k))
    return parse_presentation(f"gens: {gens} ; rels: {' , '.join(rels)} ;")


def closure_order(generators):
    """Order of a permutation group by breadth-first closure (test oracle)."""
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for perm in frontier:
            for g in generators:
                composed = tuple(perm[g[i]] for i in range(len(g)))
                if composed not in seen:
                    seen.add(composed)
                    new.append(composed)
        frontier = new
    return len(seen)


def cyclic_perm(n):
    return tuple((i + 1) % n for i in range(n))


def dihedral_rotation(n):
    # action on 2n flags (vertex, side): faithful for every n
    return tuple((i + 1) % n + n * (p // n) for p in range(2 * n) for i in [p % n])


def dihedral_reflection(n):
    return tuple((-i) % n + n * (1 - p // n) for p in range(2 * n) for i in [p % n])


def test_cyclic_five():
    result = coset_enumerate(parse_presentation("gens: a ; rels: a^5 ;"), (), 100)
    assert result.completed and result.index == 5


def test_symmetric_three():
    p = parse_presentation("gens: a b ; rels: a^3 , b^2 , a b a b ;")
    result = coset_enumerate(p, (), 100)
    assert result.completed and result.index == 6
    # oracle: S3 as permutations
    assert closure_order([(1, 2, 0), (1, 0, 2)]) == 6


def test_free_group_is_inconclusive():
    result = coset_enumerate(parse_presentation("gens: a ; rels: ;"), (), 100)
    assert not result.completed
    assert result.index is None
    assert "cap" in result.evidence()[0]


def test_trivial_presentation():
    result = coset_enumerate(Presentation((), ()), (), 10)
    assert result.completed and result.index == 1


def test_cyclic_groups_match_oracle():
    for n in range(2, 25):
        p = parse_presentation(f"gens: a ; rels: a^{n} ;")
        result = coset_enumerate(p, (), 10_000)
        assert result.completed
        assert result.index == closure_order([cyclic_perm(n)]) == n


def test_dihedral_groups_match_oracle():
    for n in range(2, 13):  # dihedral groups of order 4..24
        p = parse_presentation(f"gens: r s ; rels: r^{n} , s^2 , s r s r ;")
        result = coset_enumerate(p, (), 10_000)
        assert result.completed
        oracle = closure_order([dihedral_rotation(n), dihedral_reflection(n)])
        assert result.index == oracle == 2 * n


def test_subgroup_index():
    p = parse_presentation("gens: a b ; rels: a^3 , b^2 , a b a b ;")
    result = coset_enumerate(p, (Word.gen(1),), 100)
    assert result.completed and result.index == 3
    result = coset_enumerate(p, (Word.gen(0),), 100)
    assert result.completed and result.index == 2


def test_rejects_unknown_generators_in_subgroup():
    p = parse_presentation("gens: a ; rels: a^4 ;")
    with pytest.raises(ValueError):
        coset_enumerate(p, (Word.gen(3),), 100)
    with pytest.raises(ValueError):
        coset_enumerate(p, (), 0)


def test_deterministic():
    p = parse_presentation("gens: r s ; rels: r^12 , s^2 , s r s r ;")
    first = coset_enumerate(p, (), 10_000)
    second = coset_enumerate(p, (), 10_000)
    assert first == second


def test_quaternion_group():
    p = parse_presentation("gens: a b ; rels: a^4 , a^2 B^2 , b a b^-1 a ;")
    result = coset_enumerate(p, (), 1000)
    assert result.completed and result.index == 8


def test_alternating_five():
    p = parse_presentation("gens: a b ; rels: a^2 , b^3 , a b a b a b a b a b ;")
    result = coset_enumerate(p, (), 10_000)
    assert result.completed and result.index == 60
    assert knuth_bendix(p).rules_admitted == 39
    # oracle: closure of (0 1)(2 3) and (0 1 2 3 4), the (2,5)-generators of A5
    swap_pairs = (1, 0, 3, 2, 4)
    five_cycle = (1, 2, 3, 4, 0)
    assert closure_order([swap_pairs, five_cycle]) == 60


def test_psl_2_7():
    # the (2,3,7) quotient with [a,b]^4 has order 168
    p = parse_presentation(
        "gens: a b ; rels: a^2 , b^3 , a b a b a b a b a b a b a b , [a,b]^4 ;")
    result = coset_enumerate(p, (), 10_000)
    assert result.completed and result.index == 168
    assert knuth_bendix(p).rules_admitted == 98
    # oracle: fractional-linear action on the projective line over F_7
    points = list(range(7)) + ["inf"]

    def index_of(v):
        return 7 if v == "inf" else v

    shift = tuple(index_of((v + 1) % 7) if v != "inf" else 7 for v in points)
    neg_inv = []
    for v in points:
        if v == "inf":
            neg_inv.append(0)
        elif v == 0:
            neg_inv.append(7)
        else:
            neg_inv.append((-pow(v, -1, 7)) % 7)
    assert closure_order([shift, tuple(neg_inv)]) == 168


def test_counts_pinned_at_parent():
    """(completed, index, allocated) as the list-of-rows engine gave them.

    `allocated` counts every row ever defined, so it changes with the order
    in which entries are defined, deductions are processed or coincidences
    are merged; a faster scan must leave all of them where they were.
    """
    from dpsurgery.configurations import spheres_presentation, tori_presentation
    from dpsurgery.knots import knot_group_from_braid, torus_knot
    from dpsurgery.surgery import CaseParams, case_presentation, surgered_presentation

    cases = [
        (tori_presentation(6, 7), (), 100_000, (True, 42, 79)),
        (tori_presentation(10, 11), (), 100_000, (True, 110, 171)),
        (tori_presentation(14, 15), (), 100_000, (True, 210, 295)),
        (spheres_presentation(14, 15), (), 100_000, (True, 210, 210)),
        # capped: the cap is reached on the same definition
        (tori_presentation(14, 15), (), 100, (False, None, 100)),
    ]
    tori = tori_presentation(10, 11)
    # subgroup runs go through the HLT fill before the Felsch pass
    cases.append((tori, (tori.label_word("mu1"),), 100_000, (True, 11, 45)))
    cases.append((tori, (tori.label_word("mu2"),), 100_000, (True, 10, 41)))
    # long relators: the F3(5,4,1) case and surgered presentations on T(2,17)
    raw = knot_group_from_braid(torus_knot(8))
    knot = raw.simplified()
    case = CaseParams.f3(5, 4, 1)
    cases.append((case_presentation(case, knot), (), 100_000, (True, 20, 681)))
    cases.append((surgered_presentation(case.base_presentation(), knot, 1), (), 100_000,
                  (True, 20, 464)))
    cases.append((case_presentation(case, raw), (), 500, (False, None, 500)))
    cases.append((coxeter_symmetric(5), (), 50, (False, None, 50)))
    cases.append((coxeter_symmetric(6), (Word.gen(0),), 100_000, (True, 360, 360)))
    for p, subgroup, cap, expected in cases:
        result = coset_enumerate(p, subgroup, cap)
        assert (result.completed, result.index, result.allocated) == expected
        assert result.max_cosets == cap


def test_deductions_counted_once_per_entry():
    """Each new table entry is queued once, from the end it was defined at.

    The counts are entries popped from the deduction queue; queueing both
    ends of every entry would double them.
    """
    from dpsurgery.configurations import tori_presentation

    assert coset_enumerate(tori_presentation(14, 15)).deductions == 7521
    assert coset_enumerate(coxeter_symmetric(5)).deductions == 480
    capped = coset_enumerate(coxeter_symmetric(5), (), 50)
    assert not capped.completed and capped.deductions > 0
    assert "deduction" not in " ".join(capped.evidence())


def _random_word(rng, ngens, length):
    return Word(tuple(rng.randrange(2 * ngens) for _ in range(length)))


def test_one_ended_deductions_match_two_ended(monkeypatch):
    """Queueing only (c, x) for a new entry c -x-> d loses no deduction.

    `edp` holds every rotation of each relator and of its inverse, and a
    scan closes a cycle from both ends, so the cycles scanned from (d, x^1)
    are those scanned from (c, x) read backwards.  Bringing the second push
    back must leave every outcome and every allocation count unchanged.
    """
    rng = random.Random(20240605)
    cases = []
    for _ in range(300):
        ngens = rng.randint(1, 4)
        relators = [_random_word(rng, ngens, rng.randint(1, 12))
                    for _ in range(rng.randint(1, ngens + 2))]
        p = Presentation(tuple(f"g{i}" for i in range(ngens)), relators)
        subgroup = [_random_word(rng, ngens, rng.randint(1, 6))
                    for _ in range(rng.randint(0, 2))]
        cases.append((p, subgroup, rng.choice((20, 200, 2000))))
    shipped = [coset_enumerate(p, subgroup, cap) for p, subgroup, cap in cases]

    one_ended = _Table.set_entry

    def two_ended(self, c, x, d):
        one_ended(self, c, x, d)
        self.deductions.append((d, x ^ 1))

    monkeypatch.setattr(_Table, "set_entry", two_ended)
    assert coset_enumerate(coxeter_symmetric(5)).deductions == 960
    for (p, subgroup, cap), ours in zip(cases, shipped):
        theirs = coset_enumerate(p, subgroup, cap)
        assert (theirs.completed, theirs.index, theirs.allocated) == \
            (ours.completed, ours.index, ours.allocated), (p, subgroup, cap)
    assert any(r.completed for r in shipped) and any(not r.completed for r in shipped)
