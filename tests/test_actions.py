"""Branched-cover plans and exotic action certificates."""

import pytest

from dpsurgery.actions import (CoverPlanError, CoverPlanInconclusive, build_cover_plan,
                               exotic_action_certificate)
from dpsurgery.reports import CITED, FAIL, INCONCLUSIVE, PASS
from dpsurgery.scenarios import spheres_configuration, tori_configuration
from dpsurgery.verify import Bounds, Status

from test_sw import trivial_complement_configuration


def failed(certificate) -> list[str]:
    return [c.name for c in certificate.checks if c.verdict == FAIL]


def test_plan_on_tori_3_2():
    plan = build_cover_plan(tori_configuration(3, 2), 3, 2)
    assert plan.group_verdict.status is Status.ISOMORPHIC
    assert plan.meridian_orders == (3, 2)
    assert "Z_2 cover" in plan.stage_one
    assert "Z_3 cover" in plan.stage_two


def test_plan_rejects_non_coprime():
    with pytest.raises(CoverPlanError, match="gcd"):
        build_cover_plan(spheres_configuration(4, 2), 4, 2)


def test_plan_rejects_wrong_group():
    with pytest.raises(CoverPlanError):
        build_cover_plan(trivial_complement_configuration(), 3, 2)


def test_certificate_passes_table():
    for m, n, k in [(3, 2, 1), (5, 2, 1), (2, 3, 1), (4, 3, 1)]:
        plan = build_cover_plan(tori_configuration(m, n), m, n)
        certificate = exotic_action_certificate(plan, k, 5)
        assert certificate.verdict == PASS, (m, n, k, failed(certificate))
        distinct = next(c for c in certificate.checks if c.name == "sw-pairwise-distinct")
        assert distinct.evidence == ("10/10 pairs distinguished",)
        assert "smoothly inequivalent" in certificate.conclusion


def test_certificate_fails_plotnick_gcd():
    plan = build_cover_plan(tori_configuration(3, 2), 3, 2)
    certificate = exotic_action_certificate(plan, 3, 5)
    assert certificate.verdict == FAIL
    assert "plotnick-gcd" in failed(certificate)


def test_certificate_fails_group_preservation_gcd():
    plan = build_cover_plan(tori_configuration(2, 3), 2, 3)
    certificate = exotic_action_certificate(plan, 2, 5)
    assert certificate.verdict == FAIL
    assert "group-preservation-gcd" in failed(certificate)


def test_certificate_cites_topological_equivalence():
    plan = build_cover_plan(tori_configuration(3, 2), 3, 2)
    certificate = exotic_action_certificate(plan, 1, 2)
    cited = [c for c in certificate.checks if c.verdict == CITED]
    assert len(cited) == 1
    assert cited[0].name == "topological-equivalence"
    computed = [c for c in certificate.checks if c.verdict != CITED]
    assert len(computed) == 4


def test_certificates_deterministic():
    plan = build_cover_plan(tori_configuration(3, 2), 3, 2)
    first = exotic_action_certificate(plan, 1, 3)
    second = exotic_action_certificate(plan, 1, 3)
    assert first.checks == second.checks
    assert first.conclusion == second.conclusion


def test_certificate_needs_family_of_two():
    plan = build_cover_plan(tori_configuration(3, 2), 3, 2)
    with pytest.raises(ValueError):
        exotic_action_certificate(plan, 1, 1)


def test_coprime_sweep():
    from math import gcd
    for m in range(1, 5):
        for n in range(1, 5):
            if gcd(m, n) != 1:
                continue
            if m * n < 2:
                # a single intersection point cannot feed the invariant
                # comparison, so no honest certificate exists at (1, 1)
                continue
            plan = build_cover_plan(tori_configuration(m, n), m, n)
            certificate = exotic_action_certificate(plan, 1, 3)
            assert certificate.verdict == PASS, (m, n, failed(certificate))


def test_single_point_configuration_fails_honestly():
    plan = build_cover_plan(tori_configuration(1, 1), 1, 1)
    certificate = exotic_action_certificate(plan, 1, 3)
    assert certificate.verdict == FAIL
    assert "sw-pairwise-distinct" in failed(certificate)


def test_capped_verdicts_stay_inconclusive():
    with pytest.raises(CoverPlanInconclusive, match="Inconclusive"):
        build_cover_plan(tori_configuration(3, 2), 3, 2, Bounds(max_cosets=5))
    with pytest.raises(CoverPlanError) as refused:
        build_cover_plan(trivial_complement_configuration(), 3, 2)
    assert not isinstance(refused.value, CoverPlanInconclusive)
    # at cap 30 the Z_5 + Z_2 plan completes, but each member's enumeration
    # caps and its commutator subgroup (10 cosets) does not fit the cap
    bounds = Bounds(max_cosets=30)
    plan = build_cover_plan(tori_configuration(5, 2), 5, 2, bounds)
    certificate = exotic_action_certificate(plan, 1, 5, bounds)
    assert certificate.verdict == INCONCLUSIVE
    per_knot = next(c for c in certificate.checks if c.name == "group-preserved-per-knot")
    assert per_knot.verdict == INCONCLUSIVE
    assert certificate.conclusion == "certificate inconclusive at: group-preserved-per-knot"
    # a decided failure makes the certificate fail, not inconclusive
    certificate = exotic_action_certificate(plan, 5, 5, bounds)
    assert certificate.verdict == FAIL
    assert certificate.conclusion.startswith("certificate FAILED at: group-preservation-gcd")
