"""Twisted surgery: hypotheses, the two presentation paths, embedding tags."""

import pytest

from dpsurgery.actions import _meridian_order
from dpsurgery.configurations import AmbientManifold, Configuration, SurfaceComponent
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
    assert check_case_hypothesis(CaseParams("F1", 0, d=5))
    assert not check_case_hypothesis(CaseParams("F1", 2, d=5))
    assert not check_case_hypothesis(CaseParams("F2", 1, p=1, q=4))
    assert check_case_hypothesis(CaseParams("F2", 1, p=1, q=3))
    assert check_case_hypothesis(CaseParams("F3", 1, m=3, n=2))
    assert not check_case_hypothesis(CaseParams("F3", 2, m=2, n=3))
    # gcd(0, n) = n convention: k=0 makes F3 need gcd(m, 0) = m = 1
    assert check_case_hypothesis(CaseParams("F3", 0, m=1, n=5))
    assert not check_case_hypothesis(CaseParams("F3", 0, m=3, n=5))


def test_case_params_validation():
    with pytest.raises(ValueError):
        CaseParams("F2", 1, p=1, q=0)
    with pytest.raises(ValueError):
        CaseParams("F3", 1, m=0, n=2)
    with pytest.raises(ValueError):
        CaseParams("F1", 0, d=0)
    with pytest.raises(ValueError):
        CaseParams("F2", 1, p=0, q=3)
    with pytest.raises(ValueError):
        CaseParams("F9", 0)


def test_case_targets():
    """The target is the base presentation's abelianization; the closed forms
    Z, Z_q and Z_m + Z_n are the oracle, so a mistyped base relator fails."""
    assert CaseParams("F1", 0, d=3).target() == AbelianGroup(1)
    assert CaseParams("F2", 1, p=1, q=5).target() == AbelianGroup.of_orders(5)
    assert CaseParams("F3", 1, m=3, n=2).target() == AbelianGroup.of_orders(6)
    assert CaseParams("F3", 1, m=2, n=2).target() == AbelianGroup(0, (2, 2))
    for d in range(1, 7):
        assert CaseParams("F1", 0, d=d).target() == AbelianGroup(1), d
    for p in range(1, 5):
        for q in range(1, 9):
            assert CaseParams("F2", 1, p=p, q=q).target() == AbelianGroup.of_orders(q), (p, q)
    for m in range(1, 7):
        for n in range(1, 7):
            assert CaseParams("F3", 1, m=m, n=n).target() == AbelianGroup.of_orders(m, n), (m, n)


def test_case_describe():
    assert CaseParams("F1", 0, d=5).describe() == "F1(d=5, k=0)"
    assert CaseParams("F2", 1, p=1, q=3).describe() == "F2(p=1, q=3, k=1)"
    assert CaseParams("F3", 1, m=3, n=2).describe() == "F3(m=3, n=2, k=1)"
    assert CaseParams("F3", -2, m=3, n=4).describe() == "F3(m=3, n=4, k=-2)"


# -- the two construction paths -------------------------------------------------

def test_surgered_trivial_base_unknot_trivializes():
    base = trivial_complement_configuration().pi1
    p = surgered_presentation(base, UNKNOT_DATA, 0)
    assert abelianization(p) == AbelianGroup()
    result = coset_enumerate(p, (), 1000)
    assert result.completed and result.index == 1


def test_surgered_rational_base_gives_zq():
    base = CaseParams("F2", 1, p=1, q=3).base_presentation()
    p = surgered_presentation(base, TREFOIL_DATA, 1)
    verdict = verify_abelian_isomorphism(p, AbelianGroup.of_orders(3))
    assert verdict.status is Status.ISOMORPHIC


def test_surgered_missing_labels_rejected():
    with pytest.raises(ValueError):
        surgered_presentation(parse_presentation("gens: a ; rels: ;"), TREFOIL_DATA, 0)


def test_case_f1_unknot():
    p = case_presentation(CaseParams("F1", 0, d=1), UNKNOT_DATA)
    assert abelianization(p) == AbelianGroup(1)
    verdict = certify_abelian(p, 100)
    assert verdict.status is Status.ISOMORPHIC


def test_case_f3_unknot_abelianization():
    # cokernel of [[m, 0], [k*n, n]]
    for m, n, k in [(3, 2, 1), (4, 2, 1), (6, 4, 1)]:
        p = case_presentation(CaseParams("F3", k, m=m, n=n), UNKNOT_DATA)
        assert abelianization(p) == AbelianGroup.of_orders(m, n)
    p = case_presentation(CaseParams("F3", 1, m=3, n=2), UNKNOT_DATA)
    assert abelianization(p) == AbelianGroup.of_orders(6)


def test_case_f2_trefoil_order_three():
    p = case_presentation(CaseParams("F2", 1, p=1, q=3), TREFOIL_DATA)
    result = coset_enumerate(p, (), 100_000)
    assert result.completed and result.index == 3


CROSS_VALIDATION_CASES = [CaseParams("F1", 0, d=1), CaseParams("F1", 0, d=2),
                          CaseParams("F2", 1, p=1, q=3), CaseParams("F2", 1, p=1, q=5),
                          CaseParams("F3", 1, m=3, n=2), CaseParams("F3", 1, m=5, n=2),
                          CaseParams("F3", 1, m=2, n=3)]


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
    assert verify_group_preserved(CaseParams("F2", 1, p=1, q=3), TREFOIL_DATA).status \
        is Status.ISOMORPHIC
    assert verify_group_preserved(CaseParams("F3", 1, m=3, n=2), TREFOIL_DATA).status \
        is Status.ISOMORPHIC
    assert verify_group_preserved(CaseParams("F1", 0, d=2), TREFOIL_DATA).status \
        is Status.ISOMORPHIC
    # exact engine counts on the meridian-kept path for T(2,21)
    knot = knot_group_from_braid(torus_knot(10)).simplified()
    result = coset_enumerate(case_presentation(CaseParams("F3", 1, m=5, n=3), knot), (), 100_000)
    assert (result.completed, result.index, result.allocated) == (True, 15, 588)


def test_refuses_outside_hypothesis():
    with pytest.raises(HypothesisError):
        verify_group_preserved(CaseParams("F2", 1, p=1, q=4), TREFOIL_DATA)


def test_negative_control_never_certifies_z4():
    case = CaseParams("F2", 1, p=1, q=4)
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
    # capped at 500 on the 3-generator simplification, the finite target Z_6
    # is decided by the commutator subgroup: no 12-generator Wirtinger group
    ngens.clear()
    run_builtin("tori", {"m": 2, "n": 3, "k": 3, "knot": "B3: 2 -1 2 -1 2 -1 -1 2 -1 -1 2 2"},
                Bounds(500, 200))
    assert sorted(ngens) == [3, 3, 3]
    # the infinite target Z caps at 500 on the 4-generator simplification, so
    # group-preserved alone goes on to the 12-generator Wirtinger group
    ngens.clear()
    run_builtin("nodal", {"d1": 1, "d2": 5, "k": 0,
                          "knot": "B3: -1 -1 1 -2 1 1 1 -2 1 1 2 -1"}, Bounds(500, 200))
    assert sorted(ngens) == [4, 4, 4, 12]


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
    verdict = verify_abelian_isomorphism(surgered.pi1, AbelianGroup.of_orders(3))
    assert verdict.status is Status.ISOMORPHIC


def _meridian_orders(config):
    return [_meridian_order(config, f"mu{i + 1}") for i in range(len(config.components))]


def test_surgery_keeps_meridians_whichever_way_the_point_is_written():
    # scenarios/custom_spheres.json: classes (3,0) and (0,2) in S2xS2, six points
    ambient = AmbientManifold("S2xS2", True, ((0, 1), (1, 0)), ("A", "B"))
    components = (SurfaceComponent("S_m", 0, (3, 0)), SurfaceComponent("S_n", 0, (0, 2)))
    pi1 = parse_presentation("gens: a b ; rels: a^3 , b^2 , [a,b] ; labels: mu1=a mu2=b ;")
    for point in ((0, 1, 1), (1, 0, 1)):
        config = Configuration(ambient, components, (point,) * 6, pi1)
        assert _meridian_orders(config) == [3, 2]
        surgered = apply_surgery(SurgerySpec(config, 0, TREFOIL, 1))
        assert surgered.pi1.labels == config.pi1.labels, point
        assert _meridian_orders(surgered) == [3, 2], point


def test_surgery_keeps_every_meridian_of_three_components():
    ambient = AmbientManifold("Z3", True, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("A", "B", "C"))
    components = (SurfaceComponent("C1", 0, (1, 0, 0)), SurfaceComponent("C2", 0, (1, 0, 0)),
                  SurfaceComponent("C3", 0, (0, 1, 0)))
    pi1 = parse_presentation(
        "gens: a b c ; rels: a b , c , [a,b] ; labels: mu1=a mu2=b mu3=c ;")
    config = Configuration(ambient, components, ((0, 1, 1),), pi1)
    surgered = apply_surgery(SurgerySpec(config, 0, TREFOIL, 1))
    assert surgered.pi1.labels == config.pi1.labels
    assert _meridian_orders(surgered) == _meridian_orders(config) == [None, None, 1]


def test_invalid_point_index():
    config = tori_configuration(3, 2)
    with pytest.raises(ValueError):
        SurgerySpec(config, 99, TREFOIL, 1)
