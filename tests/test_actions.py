"""Branched-cover plans and exotic action certificates."""

from dataclasses import replace

import pytest

from dpsurgery.actions import build_cover_plan, exotic_action_certificate
from dpsurgery.configurations import Configuration
from dpsurgery.reports import CITED, FAIL, INCONCLUSIVE, PASS
from dpsurgery.scenarios import spheres_configuration, tori_configuration
from dpsurgery.verify import Bounds, DEFAULT_BOUNDS

from test_sw import trivial_complement_configuration


def certificate_of(m, n, k, count, bounds=DEFAULT_BOUNDS):
    """The certificate lines of the tori (m, n) configuration, after a passing plan."""
    config = tori_configuration(m, n)
    assert build_cover_plan(config, m, n, bounds).verdict == PASS
    return exotic_action_certificate(config, m, n, k, count, bounds)


def failed(lines) -> list[str]:
    return [c.name for c in lines if c.verdict == FAIL]


def conclusion(lines):
    assert lines[-1].name == "conclusion"
    return lines[-1]


def refusal(line) -> str:
    assert line.name == "cover-plan"
    assert line.verdict == FAIL
    (message,) = line.evidence
    return message


def test_plan_on_tori_3_2():
    line = build_cover_plan(tori_configuration(3, 2), 3, 2)
    assert line.name == "cover-plan"
    assert line.verdict == PASS
    assert line.evidence == (
        "branched cover plan for Z_3 + Z_2:",
        "  stage one: Z_2 cover branched over component 2, meridian mu2 -> 1",
        "  stage two: Z_3 cover branched over the preimage of component 1",
        "  meridian orders: mu1 -> 3, mu2 -> 2")


def test_plan_rejects_non_coprime():
    line = build_cover_plan(spheres_configuration(4, 2), 4, 2)
    assert refusal(line) == "gcd(m, n) = gcd(4, 2) = 2 != 1"


def test_plan_rejects_wrong_group():
    line = build_cover_plan(trivial_complement_configuration(), 3, 2)
    assert refusal(line).startswith("complement group did not verify as Z_6: NotIsomorphic")


def test_plan_rejects_one_component():
    two = trivial_complement_configuration()
    one = Configuration(two.ambient, two.components[:1])
    assert refusal(build_cover_plan(one, 3, 2)) == \
        "cover plan needs a two-component configuration"


def test_plan_rejects_missing_presentation():
    config = replace(tori_configuration(3, 2), pi1=None)
    assert refusal(build_cover_plan(config, 3, 2)) == \
        "configuration carries no complement presentation"


def test_plan_rejects_swapped_meridians():
    config = tori_configuration(3, 2)
    pi1 = config.pi1
    swapped = pi1.with_labels({"mu1": pi1.label("mu2"), "mu2": pi1.label("mu1")})
    line = build_cover_plan(replace(config, pi1=swapped), 3, 2)
    assert refusal(line) == \
        "meridians must generate the summands: found orders 2, 3, need 3, 2"


def test_certificate_passes_table():
    for m, n, k in [(3, 2, 1), (5, 2, 1), (2, 3, 1), (4, 3, 1)]:
        lines = certificate_of(m, n, k, 5)
        assert conclusion(lines).verdict == PASS, (m, n, k, failed(lines))
        distinct = next(c for c in lines if c.name == "sw-pairwise-distinct")
        assert distinct.evidence == ("10/10 pairs distinguished",)
        assert "smoothly inequivalent" in conclusion(lines).evidence[0]


def test_certificate_fails_plotnick_gcd():
    lines = certificate_of(3, 2, 3, 5)
    assert conclusion(lines).verdict == FAIL
    assert "plotnick-gcd" in failed(lines)


def test_certificate_fails_group_preservation_gcd():
    lines = certificate_of(2, 3, 2, 5)
    assert conclusion(lines).verdict == FAIL
    assert "group-preservation-gcd" in failed(lines)


def test_certificate_cites_topological_equivalence():
    lines = certificate_of(3, 2, 1, 2)
    cited = [c for c in lines if c.verdict == CITED]
    assert len(cited) == 1
    assert cited[0].name == "topological-equivalence"
    computed = [c for c in lines[:-1] if c.verdict != CITED]
    assert len(computed) == 4


def test_certificates_deterministic():
    assert certificate_of(3, 2, 1, 3) == certificate_of(3, 2, 1, 3)


def test_certificate_needs_family_of_two():
    with pytest.raises(ValueError):
        exotic_action_certificate(tori_configuration(3, 2), 3, 2, 1, 1)


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
            lines = certificate_of(m, n, 1, 3)
            assert conclusion(lines).verdict == PASS, (m, n, failed(lines))


def test_single_point_configuration_fails_honestly():
    lines = certificate_of(1, 1, 1, 3)
    assert conclusion(lines).verdict == FAIL
    assert "sw-pairwise-distinct" in failed(lines)


def test_capped_verdicts_stay_inconclusive():
    line = build_cover_plan(tori_configuration(3, 2), 3, 2, Bounds(max_cosets=5))
    assert line.name == "cover-plan"
    assert line.verdict == INCONCLUSIVE
    assert "Inconclusive" in line.evidence[0]
    assert build_cover_plan(trivial_complement_configuration(), 3, 2).verdict == FAIL
    # at cap 30 the Z_5 + Z_2 plan completes, but each member's enumeration
    # caps and its commutator subgroup (10 cosets) does not fit the cap
    bounds = Bounds(max_cosets=30)
    lines = certificate_of(5, 2, 1, 5, bounds)
    assert conclusion(lines).verdict == INCONCLUSIVE
    per_knot = next(c for c in lines if c.name == "group-preserved-per-knot")
    assert per_knot.verdict == INCONCLUSIVE
    assert conclusion(lines).evidence == ("certificate inconclusive at: group-preserved-per-knot",)
    # a decided failure makes the certificate fail, not inconclusive
    lines = certificate_of(5, 2, 5, 5, bounds)
    assert conclusion(lines).verdict == FAIL
    assert conclusion(lines).evidence[0].startswith(
        "certificate FAILED at: group-preservation-gcd")
