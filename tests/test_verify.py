"""The composite isomorphism decision procedure."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpsurgery import verify
from dpsurgery.coset import coset_enumerate
from dpsurgery.knots import FIGURE_EIGHT, TREFOIL, BraidWord, knot_group_from_braid
from dpsurgery.presentations import (AbelianGroup, Presentation, abelianization,
                                     parse_presentation, parse_word, simplify_presentation)
from dpsurgery.surgery import CaseParams, case_presentation, surgered_presentation, \
    verify_group_preserved
from dpsurgery.verify import (Bounds, Status, Verdict, certify_abelian, commutator_subgroup_order,
                              cyclic_subgroup_verdict, nonabelian_quotient_witness,
                              verify_abelian_isomorphism)
from dpsurgery.words import Word


def test_cyclic_five():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a ; rels: a^5 ;"), AbelianGroup.cyclic(5))
    assert verdict.status is Status.ISOMORPHIC
    assert any("order 5" in fact for fact in verdict.evidence)


def test_trefoil_vs_z_is_refuted():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a b ; rels: a b a B A B ;"),
        AbelianGroup.free(1), Bounds(2000, 150))
    # abelianization matches, so the refutation must come from an actual
    # nonabelianness witness, never from the abelianization alone
    assert verdict.status in (Status.NOT_ISOMORPHIC, Status.INCONCLUSIVE)
    if verdict.status is Status.NOT_ISOMORPHIC:
        assert any("nonabelian" in fact for fact in verdict.evidence)


def test_free_group_never_isomorphic_to_z2():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a b ; rels: ;"), AbelianGroup.free(2),
        Bounds(1000, 50))
    assert verdict.status is not Status.ISOMORPHIC


def test_wrong_abelianization_is_not_isomorphic():
    verdict = verify_abelian_isomorphism(
        parse_presentation("gens: a ; rels: a^5 ;"), AbelianGroup.cyclic(7))
    assert verdict.status is Status.NOT_ISOMORPHIC


def test_never_isomorphic_when_order_differs():
    # S3 has abelianization Z_2; comparing against Z_2 must fail on the order
    s3 = parse_presentation("gens: a b ; rels: a^3 , b^2 , a b a b ;")
    verdict = verify_abelian_isomorphism(s3, AbelianGroup.cyclic(2))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert any("6" in fact for fact in verdict.evidence)


def test_finite_target_isomorphic():
    p = parse_presentation("gens: a b ; rels: a^2 , b^3 , [a,b] ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup.of_orders(2, 3))
    assert verdict.status is Status.ISOMORPHIC


def test_nonabelian_quotient_witness():
    trefoil = parse_presentation("gens: a b ; rels: a b a B A B ;")
    witness = nonabelian_quotient_witness(trefoil, 5000)
    assert witness is not None and "order 6" in witness
    abelian = parse_presentation("gens: a b ; rels: [a,b] ;")
    assert nonabelian_quotient_witness(abelian, 5000) is None


def test_verdict_requires_evidence():
    with pytest.raises(ValueError):
        Verdict(Status.ISOMORPHIC, ())


def test_inconclusive_cites_bounds():
    # tiny bounds starve both engines; the verdict must say what ran out
    trefoil = parse_presentation("gens: a b ; rels: a b a B A B ;")
    verdict = verify_abelian_isomorphism(trefoil, AbelianGroup.free(1), Bounds(5, 5))
    if verdict.status is Status.INCONCLUSIVE:
        assert any("cap" in fact or "exhausted" in fact for fact in verdict.evidence)


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
    (CaseParams.f3(2, 5, 1), "B4: 3 -1 2 -1 -1 2 -1 2 1", 10, True),
    (CaseParams.f3(5, 4, 2), "B3: -2 -2 1 2 2 2 2 2 -1 2 1 1", 20, True),
    (CaseParams.f3(3, 4, -2), "B4: -1 -3 2 1 1 -3 -2 -2 -3 1 2", 12, False),
    (CaseParams.f2(4, 5, 3), "B3: 2 -2 1 1 1 1 1 2 -1 2 2 2", 5, True),
    (CaseParams.f3(2, 3, 3), "B3: 2 -1 2 -1 2 -1 -1 2 -1 -1 2 2", 6, True),
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
    case = CaseParams.f2(1, 2, 1)
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


# -- infinite cyclic targets: the index of one cyclic subgroup ------------------

def test_cyclic_subgroup_index_refutes_z():
    """Z_3 x| Z: the abelianization is Z, generated by x, and <x> has index 3."""
    p = parse_presentation("gens: x t ; rels: t^3 , x t X t ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup.free(1))
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[1] == ("x maps to a generator of the abelianization Z; the subgroup "
                                   "it generates has index 3 (3 cosets allocated, cap 100000)")
    assert not any("coset enumeration completed: index" in fact for fact in verdict.evidence)


def test_cyclic_subgroup_word_is_a_bezout_product():
    """a -> 3 and b -> 2: no generator maps to +-1, so g is a^u b^v with 3u + 2v = +-1."""
    p = parse_presentation("gens: a b ; rels: a^2 B^3 , [a,b] ;")
    verdict = verify_abelian_isomorphism(p, AbelianGroup.free(1))
    assert verdict.status is Status.ISOMORPHIC
    fact = verdict.evidence[1]
    name = fact.split(" maps to a generator")[0]
    word = parse_word(name, p.generators)
    assert {x >> 1 for x in word.letters} == {0, 1}
    assert abs(3 * word.exponent_sum(0) + 2 * word.exponent_sum(1)) == 1
    assert "the subgroup it generates has index 1" in fact
    assert verdict.evidence[-1] == "group is cyclic, hence isomorphic to Z"


def test_cyclic_subgroup_verdict_needs_abelianization_z():
    with pytest.raises(ValueError):
        cyclic_subgroup_verdict(parse_presentation("gens: a b ; rels: [a,b] ;"), 100)


def test_cyclic_subgroup_cap_falls_through_to_rewriting():
    """<a> has infinite index in the trefoil group: the cap is recorded, and
    Knuth-Bendix and the quotient search decide as before."""
    trefoil = parse_presentation("gens: a b ; rels: a b a B A B ;")
    verdict = verify_abelian_isomorphism(trefoil, AbelianGroup.free(1), Bounds(300, 150))
    assert verdict.evidence[1] == ("index of the subgroup generated by a inconclusive: table "
                                   "cap 300 exhausted (300 cosets allocated)")
    assert verdict.status is Status.NOT_ISOMORPHIC
    assert verdict.evidence[-1] == "nonabelian group cannot be isomorphic to an abelian target"


@st.composite
def z_presentations(draw):
    """Two or three generators with abelianization Z, and up to two random
    relators with zero exponent sums.  The first relators are either a^p b^q
    with p, q coprime (its letters shuffled), or b^m and a b A b^e with m and
    e + 1 coprime (among them Z_m x| Z, where <a> has index m); a third
    generator is set equal to a random word in a and b."""
    n = draw(st.integers(2, 3))
    letters = st.integers(0, 2 * n - 1)
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
    for _ in range(draw(st.integers(0, 2))):
        w = draw(st.lists(letters, min_size=1, max_size=5))
        shuffled = draw(st.permutations(w))
        relators.append(Word(tuple(w)) * Word(tuple(shuffled)).inverse())
    return Presentation(tuple("abc"[:n]), tuple(relators))


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(z_presentations())
def test_cyclic_subgroup_agrees_with_rewriting(p):
    """Wherever the index test and the abelianness certificate both decide, they agree."""
    assert abelianization(p) == AbelianGroup.free(1)
    cyclic = cyclic_subgroup_verdict(p, 2_000)
    cert = certify_abelian(p, 100)
    if Status.INCONCLUSIVE not in (cyclic.status, cert.status):
        assert cyclic.status is cert.status, (p.format(), cyclic.evidence, cert.evidence)


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
    verdict = verify_group_preserved(CaseParams.f1(d, 0), raw.simplified(), Bounds(500, 200), raw)
    assert verdict.status is status, verdict.evidence
    decided = [fact for fact in verdict.evidence
               if "the subgroup it generates has index 1" in fact]
    if d in _RAW_DECIDED:
        assert verdict.evidence[2].startswith("index of the subgroup generated by")
        assert "table cap 500 exhausted" in verdict.evidence[2]
        assert decided == [verdict.evidence[3]]
        assert decided[0].startswith("on the unsimplified Wirtinger group: ")
    else:
        assert decided == [verdict.evidence[2]]
    assert not any("rewrite-rule" in fact for fact in verdict.evidence)


def test_f1_capped_on_both_knot_groups_names_both_caps():
    """Below the 26 cosets the raw group needs, both index enumerations cap,
    and Knuth-Bendix on the simplified group stops at its rule cap."""
    raw = knot_group_from_braid(BraidWord.parse("B3: -1 -1 1 -2 1 1 1 -2 1 1 2 -1"))
    verdict = verify_group_preserved(CaseParams.f1(5, 0), raw.simplified(), Bounds(25, 200), raw)
    assert verdict.status is Status.INCONCLUSIVE, verdict.evidence
    cap = "index of the subgroup generated by s inconclusive: table cap 25 exhausted"
    assert verdict.evidence[2].startswith(cap)
    assert verdict.evidence[3].startswith("on the unsimplified Wirtinger group: " + cap)
    assert any("rewrite-rule cap 200 exhausted" in fact for fact in verdict.evidence)
    assert verdict.evidence[-1] == "bounds exhausted without a decision"
