"""Coset enumeration against brute-force permutation-group oracles."""

import random
import tracemalloc

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
    assert knuth_bendix(p, 500).rules_admitted == 39
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
    assert knuth_bendix(p, 500).rules_admitted == 98
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
    """(completed, index, allocated, deductions) as the list-of-rows engine gave them.

    `allocated` counts every row ever defined, so it changes with the order
    in which entries are defined, deductions are processed or coincidences
    are merged; `deductions` counts every queued entry processed.  A faster
    scan must leave all of them where they were.
    """
    from dpsurgery.configurations import spheres_presentation, tori_presentation
    from dpsurgery.knots import knot_group_from_braid, torus_knot
    from dpsurgery.surgery import CaseParams, case_presentation, surgered_presentation

    cases = [
        (tori_presentation(6, 7), (), 100_000, (True, 42, 79, 873)),
        (tori_presentation(10, 11), (), 100_000, (True, 110, 171, 3093)),
        (tori_presentation(14, 15), (), 100_000, (True, 210, 295, 7521)),
        (spheres_presentation(14, 15), (), 100_000, (True, 210, 210, 6090)),
        # capped: the cap is reached on the same definition
        (tori_presentation(14, 15), (), 100, (False, None, 100, 1562)),
    ]
    tori = tori_presentation(10, 11)
    # subgroup runs go through the HLT fill before the Felsch pass
    cases.append((tori, (tori.label("mu1"),), 100_000, (True, 11, 45, 666)))
    cases.append((tori, (tori.label("mu2"),), 100_000, (True, 10, 41, 638)))
    # long relators: the F3(5,4,1) case and surgered presentations on T(2,17)
    raw = knot_group_from_braid(torus_knot(8))
    knot = raw.simplified()
    case = CaseParams.f3(5, 4, 1)
    cases.append((case_presentation(case, knot), (), 100_000, (True, 20, 681, 1288)))
    cases.append((surgered_presentation(case.base_presentation(), knot, 1), (), 100_000,
                  (True, 20, 464, 1921)))
    cases.append((case_presentation(case, raw), (), 500, (False, None, 500, 722)))
    cases.append((coxeter_symmetric(5), (), 50, (False, None, 50, 156)))
    cases.append((coxeter_symmetric(6), (Word.gen(0),), 100_000, (True, 360, 360, 1800)))
    # relators of length 334 (the capped surgery-sweep request) and T(2,21)
    f233, surgered233 = _f3_233_presentations()
    cases.append((f233, (), 500, (False, None, 500, 893)))
    cases.append((surgered233, (), 500, (False, None, 500, 1772)))
    t21 = knot_group_from_braid(torus_knot(10)).simplified()
    cases.append((case_presentation(case, t21), (), 100_000, (True, 20, 833, 1576)))
    for p, subgroup, cap, expected in cases:
        result = coset_enumerate(p, subgroup, cap)
        assert (result.completed, result.index, result.allocated, result.deductions) == expected
        assert result.max_cosets == cap


def _f3_233_presentations():
    """F3(2,3,3) collapsed and surgered on the simplified knot group of a 3-braid.

    The knot group keeps a relator of 334 letters, so each presentation has
    one too.
    """
    from dpsurgery.knots import knot_group_from_braid
    from dpsurgery.scenarios import parse_knot
    from dpsurgery.surgery import CaseParams, case_presentation, surgered_presentation

    knot = knot_group_from_braid(parse_knot("B3: 2 -1 2 -1 2 -1 -1 2 -1 -1 2 2")).simplified()
    case = CaseParams.f3(2, 3, 3)
    return (case_presentation(case, knot),
            surgered_presentation(case.base_presentation(), knot, case.k))


def test_long_relator_rotations_stored_once():
    """A relator's rotations are spans of one doubled copy, not n copies.

    Storing every rotation of the 334-letter relators as its own tuple took
    3.1 MB on this capped enumeration; the spans take about 0.2 MB.
    """
    p, _ = _f3_233_presentations()
    assert max(len(r.letters) for r in p.relators) == 334
    tracemalloc.start()
    try:
        result = coset_enumerate(p, (), 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.completed and result.allocated == 500
    assert peak < 1_000_000


def test_deductions_counted_once_per_entry():
    """Each new table entry is queued once, from the end it was defined at.

    The counts are entries popped from the deduction queue; queueing both
    ends of every entry would double them.
    """
    from dpsurgery.configurations import tori_presentation

    assert coset_enumerate(tori_presentation(14, 15), (), 100_000).deductions == 7521
    assert coset_enumerate(coxeter_symmetric(5), (), 100_000).deductions == 480
    capped = coset_enumerate(coxeter_symmetric(5), (), 50)
    assert not capped.completed and capped.deductions > 0
    assert "deduction" not in " ".join(capped.evidence())


def _random_word(rng, ngens, length):
    return Word(tuple(rng.randrange(2 * ngens) for _ in range(length)))


def _random_cases():
    """300 seeded (presentation, subgroup, cap) triples, capped and completing."""
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
    return cases


def test_final_tables_keep_the_scan_invariant(monkeypatch):
    """Every live row points only at live cosets, and c -x-> d iff d -x^1-> c.

    `scan` walks the rows with no union-find lookup per letter because of
    this invariant (see the module docstring), so it must hold on completed
    and capped tables alike, coincidences included (tori 14 x 15 merges 85
    times).
    """
    from dpsurgery.configurations import tori_presentation

    tables = []
    init = _Table.__init__

    def recording_init(self, ncols, cap):
        init(self, ncols, cap)
        tables.append(self)

    monkeypatch.setattr(_Table, "__init__", recording_init)
    runs = _random_cases()
    runs.append((tori_presentation(14, 15), (), 100_000))
    runs.append((coxeter_symmetric(5), (), 50))
    for p, subgroup, cap in runs:
        coset_enumerate(p, subgroup, cap)
        table = tables[-1]
        live = [c for c in range(len(table.rows)) if table.parent[c] == c]
        assert len(live) == table.live
        for c in live:
            for x, d in enumerate(table.rows[c]):
                if d is not None:
                    assert table.parent[d] == d, (p, subgroup, cap, c, x)
                    assert table.rows[d][x ^ 1] == c, (p, subgroup, cap, c, x)
    assert len(tables) == len(runs)


def test_one_ended_deductions_match_two_ended(monkeypatch):
    """Queueing only (c, x) for a new entry c -x-> d loses no deduction.

    `edp` holds every rotation of each relator and of its inverse, and a
    scan closes a cycle from both ends, so the cycles scanned from (d, x^1)
    are those scanned from (c, x) read backwards.  Bringing the second push
    back must leave every outcome and every allocation count unchanged.
    """
    cases = _random_cases()
    shipped = [coset_enumerate(p, subgroup, cap) for p, subgroup, cap in cases]

    one_ended = _Table.set_entry

    def two_ended(self, c, x, d):
        one_ended(self, c, x, d)
        self.deductions.append((d, x ^ 1))

    monkeypatch.setattr(_Table, "set_entry", two_ended)
    assert coset_enumerate(coxeter_symmetric(5), (), 100_000).deductions == 960
    for (p, subgroup, cap), ours in zip(cases, shipped):
        theirs = coset_enumerate(p, subgroup, cap)
        assert (theirs.completed, theirs.index, theirs.allocated) == \
            (ours.completed, ours.index, ours.allocated), (p, subgroup, cap)
    assert any(r.completed for r in shipped) and any(not r.completed for r in shipped)
