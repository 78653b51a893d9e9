"""Twisted surgery: hypotheses, the two presentation paths, embedding tags."""

import pytest

from dpsurgery.coset import coset_enumerate
from dpsurgery.knots import FIGURE_EIGHT, TREFOIL, UNKNOT, knot_group_from_braid, torus_knot
from dpsurgery.presentations import AbelianGroup, abelianization, \
    parse_presentation
from dpsurgery import scenarios, surgery
from dpsurgery.scenarios import nodal_configuration, rational_configuration, run_builtin, \
    tori_configuration
from dpsurgery.surgery import (CaseParams, HypothesisError, SurgerySpec, apply_surgery,
                               case_presentation, check_case_hypothesis, surgered_presentation,
                               verify_group_preserved)
from dpsurgery.verify import Bounds, Status, certify_abelian, verify_abelian_isomorphism

from test_sw import trivial_complement_configuration


TREFOIL_DATA = knot_group_from_braid(TREFOIL)
FIG8_DATA = knot_group_from_braid(FIGURE_EIGHT)
UNKNOT_DATA = knot_group_from_braid(UNKNOT)


# -- hypotheses ----------------------------------------------------------------

def test_case_hypotheses():
    assert check_case_hypothesis(CaseParams.f1(5, 0))
    assert not check_case_hypothesis(CaseParams.f1(5, 2))
    assert not check_case_hypothesis(CaseParams.f2(1, 4, 1))
    assert check_case_hypothesis(CaseParams.f2(1, 3, 1))
    assert check_case_hypothesis(CaseParams.f3(3, 2, 1))
    assert not check_case_hypothesis(CaseParams.f3(2, 3, 2))
    # gcd(0, n) = n convention: k=0 makes F3 need gcd(m, 0) = m = 1
    assert check_case_hypothesis(CaseParams.f3(1, 5, 0))
    assert not check_case_hypothesis(CaseParams.f3(3, 5, 0))


def test_case_params_validation():
    with pytest.raises(ValueError):
        CaseParams.f2(1, 0, 1)
    with pytest.raises(ValueError):
        CaseParams.f3(0, 2, 1)
    with pytest.raises(ValueError):
        CaseParams("F9", 0)


def test_case_targets():
    assert CaseParams.f1(3, 0).target() == AbelianGroup.free(1)
    assert CaseParams.f2(1, 5, 1).target() == AbelianGroup.cyclic(5)
    assert CaseParams.f3(3, 2, 1).target() == AbelianGroup.cyclic(6)
    assert CaseParams.f3(2, 2, 1).target() == AbelianGroup(0, (2, 2))


# -- the two construction paths -------------------------------------------------

def test_surgered_trivial_base_unknot_trivializes():
    base = trivial_complement_configuration().pi1
    p = surgered_presentation(base, UNKNOT_DATA, 0)
    assert abelianization(p) == AbelianGroup.trivial()
    result = coset_enumerate(p, (), 1000)
    assert result.completed and result.index == 1


def test_surgered_rational_base_gives_zq():
    base = CaseParams.f2(1, 3, 1).base_presentation()
    p = surgered_presentation(base, TREFOIL_DATA, 1)
    verdict = verify_abelian_isomorphism(p, AbelianGroup.cyclic(3))
    assert verdict.status is Status.ISOMORPHIC


def test_surgered_missing_labels_rejected():
    with pytest.raises(ValueError):
        surgered_presentation(parse_presentation("gens: a ; rels: ;"), TREFOIL_DATA, 0)


def test_case_f1_unknot():
    p = case_presentation(CaseParams.f1(1, 0), UNKNOT_DATA)
    assert abelianization(p) == AbelianGroup.free(1)
    verdict = certify_abelian(p, 100)
    assert verdict.status is Status.ISOMORPHIC


def test_case_f3_unknot_abelianization():
    # cokernel of [[m, 0], [k*n, n]]
    for m, n, k in [(3, 2, 1), (4, 2, 1), (6, 4, 1)]:
        p = case_presentation(CaseParams.f3(m, n, k), UNKNOT_DATA)
        assert abelianization(p) == AbelianGroup.of_orders(m, n)
    p = case_presentation(CaseParams.f3(3, 2, 1), UNKNOT_DATA)
    assert abelianization(p) == AbelianGroup.cyclic(6)


def test_case_f2_trefoil_order_three():
    p = case_presentation(CaseParams.f2(1, 3, 1), TREFOIL_DATA)
    result = coset_enumerate(p, (), 100_000)
    assert result.completed and result.index == 3


CROSS_VALIDATION_CASES = [CaseParams.f1(1, 0), CaseParams.f1(2, 0),
                          CaseParams.f2(1, 3, 1), CaseParams.f2(1, 5, 1),
                          CaseParams.f3(3, 2, 1), CaseParams.f3(5, 2, 1),
                          CaseParams.f3(2, 3, 1)]


@pytest.mark.parametrize("case", CROSS_VALIDATION_CASES,
                         ids=[c.describe() for c in CROSS_VALIDATION_CASES])
@pytest.mark.parametrize("knot_data", [TREFOIL_DATA, FIG8_DATA], ids=["trefoil", "fig8"])
def test_paths_cross_validate(case, knot_data):
    # both paths on the Wirtinger group and on its meridian-kept
    # simplification, so the simplification is cross-checked as well
    simplified = knot_data.simplified()
    presentations = [surgered_presentation(case.base_presentation(), data, case.k)
                     for data in (knot_data, simplified)]
    presentations += [case_presentation(case, data) for data in (knot_data, simplified)]
    assert len({abelianization(p) for p in presentations}) == 1
    if case.target().order() is not None:
        results = [coset_enumerate(p, (), 100_000) for p in presentations]
        assert all(r.completed for r in results)
        assert len({r.index for r in results}) == 1
    else:
        for p in presentations:
            assert certify_abelian(p, 500).status is Status.ISOMORPHIC


# -- verify_group_preserved ------------------------------------------------------

def test_verified_cells():
    assert verify_group_preserved(CaseParams.f2(1, 3, 1), TREFOIL_DATA).status \
        is Status.ISOMORPHIC
    assert verify_group_preserved(CaseParams.f3(3, 2, 1), TREFOIL_DATA).status \
        is Status.ISOMORPHIC
    assert verify_group_preserved(CaseParams.f1(2, 0), TREFOIL_DATA).status \
        is Status.ISOMORPHIC
    # exact engine counts on the meridian-kept path for T(2,21)
    knot = knot_group_from_braid(torus_knot(10)).simplified()
    result = coset_enumerate(case_presentation(CaseParams.f3(5, 3, 1), knot), (), 100_000)
    assert (result.completed, result.index, result.allocated) == (True, 15, 588)


def test_refuses_outside_hypothesis():
    with pytest.raises(HypothesisError):
        verify_group_preserved(CaseParams.f2(1, 4, 1), TREFOIL_DATA)


def test_negative_control_never_certifies_z4():
    case = CaseParams.f2(1, 4, 1)
    verdict = verify_abelian_isomorphism(case_presentation(case, TREFOIL_DATA), case.target())
    assert verdict.status in (Status.NOT_ISOMORPHIC, Status.INCONCLUSIVE)
    # the enumerated order is 12, an honest refutation
    if verdict.status is Status.NOT_ISOMORPHIC:
        assert any("12" in fact for fact in verdict.evidence)


def test_uncapped_surgery_never_builds_a_raw_presentation(monkeypatch):
    # the number of generators of each knot group that a case or amalgam
    # presentation is built on
    ngens = []
    for module in (surgery, scenarios):
        for name in ("case_presentation", "surgered_presentation"):
            def spy(*args, build=getattr(module, name)):
                ngens.append(args[1].presentation.ngens)
                return build(*args)
            monkeypatch.setattr(module, name, spy)
    # the trefoil's Wirtinger group has 3 generators, its simplification 2:
    # group-preserved and both cross-validation paths build on the latter
    run_builtin("tori", {"m": 3, "n": 2, "k": 1, "knot": "B2: 1 1 1"})
    assert ngens == [2, 2, 2]
    # capped at 500 on the 3-generator simplification, each of the three
    # goes on to the 12-generator Wirtinger group
    ngens.clear()
    run_builtin("tori", {"m": 2, "n": 3, "k": 3, "knot": "B3: 2 -1 2 -1 2 -1 -1 2 -1 -1 2 2"},
                Bounds(500, 200))
    assert sorted(ngens) == [3, 3, 3, 12, 12, 12]


# -- apply_surgery ----------------------------------------------------------------

def test_zeeman_untwisting_for_plus_minus_one():
    config = tori_configuration(3, 2)
    for k in (1, -1):
        surgered = apply_surgery(SurgerySpec(config, 0, TREFOIL, k))
        assert surgered.components[0].embedding_tag == "Standard"
        assert surgered.components[1] == config.components[1]


def test_gluck_untwisting_for_zero_twist_on_a_line():
    config = nodal_configuration(1, 2)
    surgered = apply_surgery(SurgerySpec(config, 0, TREFOIL, 0))
    assert surgered.components[0].embedding_tag == "Standard"


def test_zero_twist_generic_component_keeps_tag():
    config = tori_configuration(3, 2)
    surgered = apply_surgery(SurgerySpec(config, 0, TREFOIL, 0))
    assert surgered.components[0].embedding_tag == "ConnectSumTwistSpun(B2: 1 1 1, 0)"


def test_surgery_preserves_homology_and_points():
    config = rational_configuration(1, 3)
    surgered = apply_surgery(SurgerySpec(config, 0, TREFOIL, 1))
    assert surgered.double_points == config.double_points
    for before, after in zip(config.components, surgered.components):
        assert before.homology_class == after.homology_class
        assert before.genus == after.genus
    assert surgered.components[1] == config.components[1]
    # the new complement presentation is the full amalgam
    verdict = verify_abelian_isomorphism(surgered.pi1, AbelianGroup.cyclic(3))
    assert verdict.status is Status.ISOMORPHIC


def test_invalid_point_index():
    config = tori_configuration(3, 2)
    with pytest.raises(ValueError):
        SurgerySpec(config, 99, TREFOIL, 1)
