"""The composite isomorphism decision procedure."""

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpsurgery import verify
from dpsurgery.coset import coset_enumerate
from dpsurgery.knots import FIGURE_EIGHT, TREFOIL, BraidWord, knot_group_from_braid
from dpsurgery.presentations import (AbelianGroup, Presentation, abelianization,
                                     parse_presentation, parse_word, simplify_presentation)
from dpsurgery.surgery import CaseParams, case_presentation, check_case_hypothesis, \
    surgered_presentation, verify_group_preserved
from dpsurgery.verify import (Bounds, Status, Verdict, certify_abelian, commutator_subgroup_order,
                              decide_group, nonabelian_quotient_witness, subgroup_index_test,
                              verify_abelian_isomorphism)
from dpsurgery.words import Word, commutator

from test_alexander import random_knot_braids


def test_cyclic_five():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a ; rels: a^5 ;"), AbelianGroup.of_orders(5))
    assert verdict.status is Status.ISOMORPHIC
    assert any("order 5" in fact for fact in verdict.evidence)


_TREFOIL_KERNEL = ("kernel of the map onto Z_2 by Reidemeister-Schreier (3 Schreier generators, "
                   "2 after Tietze) has abelianization Z + Z_3; an abelian group would give Z")


def test_trefoil_vs_z_is_refuted():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a b ; rels: a b a B A B ;"),
        AbelianGroup(1), Bounds(2000, 150))
    # abelianization matches, so the refutation must come from an actual
    # nonabelianness witness, never from the abelianization alone
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[-2:] == (_TREFOIL_KERNEL, verify._NONABELIAN)


def test_free_group_never_isomorphic_to_z2():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a b ; rels: ;"), AbelianGroup(2),
        Bounds(1000, 50))
    assert verdict.status is not Status.ISOMORPHIC


def test_wrong_abelianization_is_not_isomorphic():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a ; rels: a^5 ;"), AbelianGroup.of_orders(7))
    assert verdict.status is Status.NOT_ISOMORPHIC


def test_never_isomorphic_when_order_differs():
    # S3 has abelianization Z_2; comparing against Z_2 must fail on the order
    s3 = parse_presentation("gens: a b ; rels: a^3 , b^2 , a b a b ;")
    verdict = verify_abelian_isomorphism(s3, AbelianGroup.of_orders(2))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert any("6" in fact for fact in verdict.evidence)


def test_finite_target_isomorphic():
    p = parse_presentation("gens: a b ; rels: a^2 , b^3 , [a,b] ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup.of_orders(2, 3))
    assert verdict.status is Status.ISOMORPHIC


def test_nonabelian_quotient_witness(monkeypatch):
    """The kernel check: an abelian G = Z^r + T has ker(G -> Z_k^r + T) = Z^r."""
    # the Klein bottle group has abelianization Z + Z_2, and <a> infinite index
    klein = parse_presentation("gens: a b ; rels: a b A b ;")
    klein_kernel = ("kernel of the map onto Z_2 + Z_2 by Reidemeister-Schreier (5 Schreier "
                    "generators, 2 after Tietze) has abelianization Z^2; an abelian group "
                    "would give Z")
    verdict = verify_abelian_isomorphism(klein, AbelianGroup(1, (2,)), Bounds(500, 5))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[1:3] == ("index of the subgroup generated by a inconclusive: table "
                                     "cap 500 exhausted (500 cosets allocated)", klein_kernel)

    def refuse(*args):
        raise AssertionError("the kernel check enumerated cosets")

    monkeypatch.setattr(verify, "coset_enumerate", refuse)
    trefoil = parse_presentation("gens: a b ; rels: a b a B A B ;")
    assert nonabelian_quotient_witness(trefoil, 5000) == _TREFOIL_KERNEL
    assert nonabelian_quotient_witness(klein, 5000) == klein_kernel
    # the kernel at k = 2 needs 2 * 2 transversal rows and 2 * 2 + 1 Schreier generators
    assert nonabelian_quotient_witness(klein, 8) is None
    abelian = parse_presentation("gens: a b ; rels: [a,b] ;")
    assert nonabelian_quotient_witness(abelian, 5000) is None


def test_verdict_requires_evidence():
    with pytest.raises(ValueError):
        Verdict(Status.ISOMORPHIC, ())


def test_inconclusive_cites_bounds():
    # tiny bounds starve every engine: the index test caps, the kernel check
    # needs 9 rows, and Knuth-Bendix needs more than 5 rules; the verdict
    # must say what ran out
    klein = parse_presentation("gens: a b ; rels: a b A b ;")
    verdict = verify_abelian_isomorphism(klein, AbelianGroup(1, (2,)), Bounds(5, 5))
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.evidence[1:] == (
        "index of the subgroup generated by a inconclusive: table cap 5 exhausted "
        "(5 cosets allocated)",
        "rewrite-rule cap 5 exhausted with 1 of 1 commutators unresolved",
        "bounds exhausted without a decision")


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(0, 10)


# -- the commutator subgroup route ----------------------------------------------

def test_route_on_small_groups():
    cases = [
        ("gens: a b ; rels: a^2 , b^3 , [a,b] ;", 6, False, "commutator subgroup is trivial"),
        ("gens: a b ; rels: a^3 , b^2 , a b a b ;", 6, True,
         "commutator subgroup has abelianization Z_3: group is nonabelian"),
        ("gens: a b ; rels: a^4 , b^2 A^2 , B a b a ;", 8, True,  # quaternion
         "commutator subgroup has abelianization Z_2: group is nonabelian"),
    ]
    for text, order, nonabelian, fact in cases:
        derived = commutator_subgroup_order(parse_presentation(text), 1000)
        assert (derived.order, derived.nonabelian) == (order, nonabelian), text
        assert fact in derived.evidence
    # an infinite abelianization is out of the route's reach
    trefoil = parse_presentation("gens: a b ; rels: a b a B A B ;")
    assert commutator_subgroup_order(trefoil, 1000) == verify.DerivedOrder(None, False, ())


def test_route_guard_counts_cosets_and_schreier_generators():
    # Z_6 on two generators: 6 transversal rows and 6 * 1 + 1 Schreier generators
    p = parse_presentation("gens: a b ; rels: a^2 , b^3 , [a,b] ;")
    assert commutator_subgroup_order(p, 12).order is None
    assert commutator_subgroup_order(p, 13).order == 6


@st.composite
def finite_presentations(draw):
    """Two or three generators, a power of each and of their product ab (so
    among them the von Dyck groups, dihedral, A_4, S_4 and the perfect A_5),
    and up to two short random relators."""
    n = draw(st.integers(2, 3))
    letters = st.integers(0, 2 * n - 1)
    relators = [Word.gen(g, draw(st.integers(2, 5))) for g in range(n)]
    relators.append((Word.gen(0) * Word.gen(1)) ** draw(st.integers(2, 5)))
    relators += [Word(tuple(draw(st.lists(letters, min_size=1, max_size=8))))
                 for _ in range(draw(st.integers(0, 2)))]
    return Presentation(tuple("abc"[:n]), tuple(relators))


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(finite_presentations())
def test_route_agrees_with_enumeration(p):
    """Wherever the route and an enumeration both complete, they give one order."""
    order = abelianization(p).order()
    assert order is not None  # a power relator on every generator
    derived = commutator_subgroup_order(p, 5_000)
    result = coset_enumerate(p, (), 5_000)
    if derived.order is not None and result.completed:
        assert derived.order == result.index
        assert derived.nonabelian == (result.index != order)
    if derived.nonabelian and result.completed:
        assert result.index != order


# Capped cases decided by their commutator subgroup: the four of the ROADMAP
# baseline, then the pinned capped surgery request of the CLI tests.  Each
# caps at 500 rows.  Felsch on the Tietze-simplified case presentation needs
# 6 669, 13 420, 11 588 and 5 006 cosets for four of them; F3(3, 4, -2) needs
# over 500 000, so its order is the theorem's target alone.
_CAPPED_CASES = [
    (CaseParams("F3", 1, m=2, n=5), "B4: 3 -1 2 -1 -1 2 -1 2 1", 10, True),
    (CaseParams("F3", 2, m=5, n=4), "B3: -2 -2 1 2 2 2 2 2 -1 2 1 1", 20, True),
    (CaseParams("F3", -2, m=3, n=4), "B4: -1 -3 2 1 1 -3 -2 -2 -3 1 2", 12, False),
    (CaseParams("F2", 3, p=4, q=5), "B3: 2 -2 1 1 1 1 1 2 -1 2 2 2", 5, True),
    (CaseParams("F3", 3, m=2, n=3), "B3: 2 -1 2 -1 2 -1 -1 2 -1 -1 2 2", 6, True),
]


@pytest.mark.parametrize("case, knot, order, enumerable", _CAPPED_CASES)
def test_route_decides_capped_cases(case, knot, order, enumerable):
    data = knot_group_from_braid(BraidWord.parse(knot)).simplified()
    verdict = verify_group_preserved(case, data, Bounds(500, 200))
    assert verdict.status is Status.ISOMORPHIC, verdict.evidence
    assert "coset enumeration inconclusive: table cap 500 exhausted (500 cosets allocated)" \
        in verdict.evidence
    assert any(fact.startswith("commutator subgroup by Reidemeister-Schreier")
               for fact in verdict.evidence)
    assert verdict.evidence[-1] == (f"group order {order} equals abelianization order: "
                                    f"group is abelian, hence isomorphic to {case.target()}")
    if enumerable:
        result = coset_enumerate(simplify_presentation(case_presentation(case, data)), (),
                                 20_000)
        assert result.completed and result.index == order


def test_route_on_the_criterion_3_q2_cell():
    """G' is Z_3 for the trefoil and Z_5 for the figure eight: orders 6 and 10."""
    case = CaseParams("F2", 1, p=1, q=2)
    for braid, quotient, order in ((TREFOIL, "Z_3", 6), (FIGURE_EIGHT, "Z_5", 10)):
        knot = knot_group_from_braid(braid)
        amalgam = surgered_presentation(case.base_presentation(), knot, case.k)
        for p in (amalgam, case_presentation(case, knot)):
            derived = commutator_subgroup_order(p, 100_000)
            assert (derived.order, derived.nonabelian) == (order, True)
            assert (f"commutator subgroup has abelianization {quotient}: group is nonabelian"
                    in derived.evidence)
            result = coset_enumerate(p, (), 100_000)
            assert result.completed and result.index == order


def test_capped_finite_target_never_runs_the_witness(monkeypatch):
    calls = []
    original = verify.nonabelian_quotient_witness

    def spy(p, max_cosets):
        calls.append(p)
        return original(p, max_cosets)

    def refuse(p, max_cosets):
        raise AssertionError("the witness ran on a finite target")

    monkeypatch.setattr(verify, "nonabelian_quotient_witness", refuse)
    case, knot, _, _ = _CAPPED_CASES[0]
    data = knot_group_from_braid(BraidWord.parse(knot)).simplified()
    for cap in (20, 500):  # below the route's need, and decided by it
        verdict = verify_group_preserved(case, data, Bounds(cap, 200))
        assert verdict.status is (Status.INCONCLUSIVE if cap == 20 else Status.ISOMORPHIC)
    # an infinite target still reaches the witness
    monkeypatch.setattr(verify, "nonabelian_quotient_witness", spy)
    test_trefoil_vs_z_is_refuted()
    assert len(calls) == 1


def _finite_cases(count, seed):
    """F2 and F3 cases that satisfy the hypothesis, drawn from `seed`."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        k = rng.randint(0, 4)
        case = (CaseParams("F2", k, p=rng.randint(1, 4), q=rng.randint(2, 7))
                if rng.random() < 0.5 else
                CaseParams("F3", k, m=rng.randint(1, 5), n=rng.randint(1, 5)))
        if check_case_hypothesis(case):
            found.append(case)
    return found


def test_finite_target_needs_no_retry_on_the_unsimplified_knot_group():
    """Whenever the order enumeration closes within the cap on the
    presentation built on the Wirtinger group, `decide_group` decides the one
    built on its simplification: a finite target never needs the raw retry."""
    braids = random_knot_braids(120, max_letters=14, max_strands=4, seed=7, min_letters=10)
    only_raw_decided = 0
    for case, braid in zip(_finite_cases(120, 7), braids):
        raw = knot_group_from_braid(braid)
        simple = raw.simplified()
        for build in (partial(case_presentation, case),
                      lambda data: surgered_presentation(case.base_presentation(), data, case.k)):
            for cap in (25, 50, 100, 200, 500):
                if not coset_enumerate(build(raw), (), cap).completed:
                    continue
                only_raw_decided += not coset_enumerate(build(simple), (), cap).completed
                decision = decide_group(build(simple), case.target(), Bounds(cap, 200))
                assert decision.verdict.status is not Status.INCONCLUSIVE, \
                    (case.describe(), braid.format(), cap, decision.verdict.evidence)
    # the draw holds inputs that only the raw enumeration closes (20 of the
    # 657 it closes)
    assert only_raw_decided >= 10, only_raw_decided


# -- targets of free rank <= 1: the index of one cyclic subgroup ---------------

def test_cyclic_subgroup_index_refutes_z():
    """Z_3 x| Z: the abelianization is Z, generated by x, and <x> has index 3."""
    p = parse_presentation("gens: x t ; rels: t^3 , x t X t ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup(1))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[1] == ("x maps to a generator of the abelianization Z; the subgroup "
                                   "it generates has index 3 (3 cosets allocated, cap 100000)")
    assert not any("coset enumeration completed: index" in fact for fact in verdict.evidence)


def test_cyclic_subgroup_index_refutes_z_times_s3():
    """Z x S_3 has abelianization Z + Z_2, and <t> has index 6, not 2."""
    p = parse_presentation("gens: t a b ; rels: a^3 , b^2 , a b a b , [t,a] , [t,b] ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup(1, (2,)))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[1:] == (
        "t maps to a generator of Z + Z_2 modulo its torsion; the subgroup it generates has "
        "index 6 (6 cosets allocated, cap 100000)",
        "a group isomorphic to Z + Z_2 would give index 2: index 6 refutes it")


def test_cyclic_subgroup_word_is_a_bezout_product():
    """a -> 3 and b -> 2: no generator maps to +-1, so g is a^u b^v with 3u + 2v = +-1."""
    p = parse_presentation("gens: a b ; rels: a^2 B^3 , [a,b] ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup(1))
    assert verdict.status is Status.ISOMORPHIC
    fact = verdict.evidence[1]
    name = fact.split(" maps to a generator")[0]
    word = parse_word(name, p.generators)
    assert {x >> 1 for x in word.letters} == {0, 1}
    assert abs(3 * word.exponent_sum(0) + 2 * word.exponent_sum(1)) == 1
    assert "the subgroup it generates has index 1" in fact
    assert verdict.evidence[-1] == "group is cyclic, hence isomorphic to Z"


def test_cyclic_subgroup_index_needs_free_rank_at_most_one():
    with pytest.raises(ValueError):
        subgroup_index_test(parse_presentation("gens: a b ; rels: [a,b] ;"),
                            AbelianGroup(2), 100)
    # a finite abelianization: the trivial subgroup, whose index is the order
    s3 = subgroup_index_test(parse_presentation("gens: a b ; rels: a^3 , b^2 , a b a b ;"),
                             AbelianGroup.of_orders(2), 100)
    assert (s3.verdict.status, s3.order) == (Status.NOT_ISOMORPHIC, 6)
    assert s3.verdict.evidence == ("coset enumeration completed: index 6 (6 cosets allocated, "
                                   "cap 100)",)


def test_cyclic_subgroup_cap_falls_through_to_the_kernel_check(monkeypatch):
    """<a> has infinite index in the trefoil group: the cap is recorded, and
    the kernel check refutes it before Knuth-Bendix would run."""
    def refuse(p, max_rules):
        raise AssertionError("Knuth-Bendix ran after the kernel check refuted")

    monkeypatch.setattr(verify, "certify_abelian", refuse)
    trefoil = parse_presentation("gens: a b ; rels: a b a B A B ;")
    verdict = verify_abelian_isomorphism(trefoil, AbelianGroup(1), Bounds(300, 150))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[1:] == (
        "index of the subgroup generated by a inconclusive: table cap 300 exhausted "
        "(300 cosets allocated)", _TREFOIL_KERNEL,
        "nonabelian group cannot be isomorphic to an abelian target")


@st.composite
def z_presentations(draw):
    """Two or three generators with abelianization Z, and up to two random
    relators with zero exponent sums.  The first relators are either a^p b^q
    with p, q coprime (its letters shuffled), or b^m and a b A b^e with m and
    e + 1 coprime (among them Z_m x| Z, where <a> has index m); a third
    generator is set equal to a random word in a and b.  Half of them get a
    further generator t with t^k, k = 2..4, commuting with a, with b, or with
    neither: their abelianization is Z + Z_k."""
    n = draw(st.integers(2, 3))
    torsion = draw(st.sampled_from([0, 0, 0, 2, 3, 4]))
    letters = st.integers(0, 2 * (n + bool(torsion)) - 1)
    if draw(st.booleans()):
        p, q = draw(st.sampled_from([(1, 0), (1, 1), (2, 1), (3, 2), (2, -3), (1, -2), (5, 3)]))
        first = list(Word.gen(0, p).letters + Word.gen(1, q).letters)
        relators = [Word(tuple(draw(st.permutations(first))))]
    else:
        m, e = draw(st.sampled_from([(3, 1), (5, 1), (4, 2), (5, 2), (7, 1), (2, 2), (3, 3)]))
        relators = [Word.gen(1, m), Word((0, 2, 1)) * Word.gen(1, e)]
    if n == 3:
        w = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
        relators.append(Word((5,) + tuple(w)))
    if torsion:
        t = Word.gen(n)
        relators.append(Word.gen(n, torsion))
        relators += [commutator(Word.gen(g), t) for g in draw(st.sampled_from([(0,), (1,), ()]))]
    for _ in range(draw(st.integers(0, 2))):
        w = draw(st.lists(letters, min_size=1, max_size=5))
        shuffled = draw(st.permutations(w))
        relators.append(Word(tuple(w)) * Word(tuple(shuffled)).inverse())
    return Presentation(tuple("abc"[:n]) + (("t",) if torsion else ()), tuple(relators))


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(z_presentations())
def test_cyclic_subgroup_agrees_with_rewriting(p):
    """Wherever the index test, the kernel check and the abelianness
    certificate decide, they agree; the kernel check only refutes."""
    ab = abelianization(p)
    assert ab.free_rank == 1 and len(ab.torsion) <= 1
    index = subgroup_index_test(p, ab, 2_000).verdict
    kernel = nonabelian_quotient_witness(p, 2_000)
    cert = certify_abelian(p, 100)
    decided = {v.status for v in (index, cert)} - {Status.INCONCLUSIVE}
    if kernel is not None:
        decided.add(Status.NOT_ISOMORPHIC)
    assert len(decided) <= 1, (p, index.evidence, kernel, cert.evidence)


# F1 surgeries of surgery-sweep seed 1001 at the workload's caps, each decided
# by the index of <g> with no rewriting.  The last two cap on the
# Tietze-simplified knot group, where they need 666 and 87 117 cosets, and
# are decided on the unsimplified Wirtinger group (26 and 13 cosets)
_RAW_DECIDED = (5, 2)


@pytest.mark.parametrize("d, knot, status", [
    (1, "B4: 2 2 -2 -1 1 3 3 2 3 1 2", Status.ISOMORPHIC),
    (6, "B4: -3 1 -2 -1 2 -3 -3 3 1 1 -3", Status.ISOMORPHIC),
    (5, "B3: -1 -1 1 -2 1 1 1 -2 1 1 2 -1", Status.ISOMORPHIC),
    (2, "B4: 3 -1 2 -1 -1 2 -1 2 1", Status.ISOMORPHIC),
])
def test_f1_regressions_at_the_sweep_caps(d, knot, status):
    raw = knot_group_from_braid(BraidWord.parse(knot))
    verdict = verify_group_preserved(CaseParams("F1", 0, d=d), raw.simplified(),
                                     Bounds(500, 200), raw)
    assert verdict.status is status, verdict.evidence
    decided = [fact for fact in verdict.evidence
               if "the subgroup it generates has index 1" in fact]
    if d in _RAW_DECIDED:
        assert verdict.evidence[1].startswith("index of the subgroup generated by")
        assert "table cap 500 exhausted" in verdict.evidence[1]
        assert decided == [verdict.evidence[2]]
        assert decided[0].startswith("on the unsimplified Wirtinger group: ")
    else:
        assert decided == [verdict.evidence[1]]
    assert not any("rewrite-rule" in fact for fact in verdict.evidence)


def test_f1_capped_on_both_knot_groups_names_both_caps():
    """Below the 26 cosets the raw group needs, both index enumerations cap,
    the kernel check finds no refutation (the group is Z), and Knuth-Bendix
    on the simplified group stops at its rule cap."""
    raw = knot_group_from_braid(BraidWord.parse("B3: -1 -1 1 -2 1 1 1 -2 1 1 2 -1"))
    verdict = verify_group_preserved(CaseParams("F1", 0, d=5), raw.simplified(),
                                     Bounds(25, 200), raw)
    assert verdict.status is Status.INCONCLUSIVE, verdict.evidence
    cap = "index of the subgroup generated by s inconclusive: table cap 25 exhausted"
    assert verdict.evidence[1].startswith(cap)
    assert verdict.evidence[2].startswith("on the unsimplified Wirtinger group: " + cap)
    assert any("rewrite-rule cap 200 exhausted" in fact for fact in verdict.evidence)
    assert verdict.evidence[-1] == "bounds exhausted without a decision"
