"""Formal invariant transforms and the smooth-inequivalence distinguisher."""

import random

import pytest

from dpsurgery.alexander import alexander_of_braid, coefficient_multiset
from dpsurgery.configurations import AmbientManifold, Configuration, SurfaceComponent
from dpsurgery.knots import FIGURE_EIGHT, TREFOIL, UNKNOT, torus_knot
from dpsurgery.laurent import LaurentPoly
from dpsurgery.presentations import Presentation
from dpsurgery.reports import FAIL, PASS
from dpsurgery.scenarios import rational_configuration, spheres_configuration, tori_configuration
from dpsurgery.surgery import CaseParams, HypothesisError
from dpsurgery.sw import applicability_check, distinguish, family_report, knot_surgery_transform
from dpsurgery.words import Word


def trivial_complement_configuration() -> Configuration:
    """Two transverse spheres whose complement is simply connected."""
    ambient = AmbientManifold("S2xS2", True, ((0, 1), (1, 0)), ("A", "B"))
    comps = (SurfaceComponent("S1", 0, (1, 0)), SurfaceComponent("S2", 0, (0, 1)))
    pi1 = Presentation(("mu1", "mu2"), (Word.gen(0), Word.gen(1)),
                       (("mu1", Word.gen(0)), ("mu2", Word.gen(1))))
    return Configuration(ambient, comps, ((0, 1, 1),), pi1, symplectic_positive=False)


def test_transform_unknot_is_identity():
    assert knot_surgery_transform(LaurentPoly.one(), LaurentPoly.one()) == LaurentPoly.one()


def test_transform_trefoil():
    out = knot_surgery_transform(LaurentPoly.one(), LaurentPoly(-1, (1, -1, 1)))
    assert out == LaurentPoly(-2, (1, 0, -1, 0, 1))


def test_transform_expands_products_exactly():
    out = knot_surgery_transform(LaurentPoly(-1, (1, 0, 1)), LaurentPoly(-1, (1, -1, 1)))
    # (r + r^-1)(r^2 - 1 + r^-2) = r^3 + r^-3
    assert out == LaurentPoly(-3, (1, 0, 0, 0, 0, 0, 1))


def test_transform_multiplicative():
    rng = random.Random(6)

    def random_poly():
        width = rng.randint(1, 4)
        return LaurentPoly.make(rng.randint(-3, 3),
                                [rng.randint(-4, 4) for _ in range(width)])

    for _ in range(100):
        d1, d2 = random_poly(), random_poly()
        one = LaurentPoly.one()
        chained = knot_surgery_transform(knot_surgery_transform(one, d1), d2)
        assert chained == knot_surgery_transform(one, d1 * d2)


def failed_conditions(line) -> list[str]:
    return [fact.split(": FAIL")[0] for fact in line.evidence if ": FAIL (" in fact]


def test_applicability_spheres_fails_without_invariant():
    line = applicability_check(spheres_configuration(3, 2))
    assert line.name == "applicability"
    assert line.verdict == FAIL
    assert failed_conditions(line) == ["nonvanishing-invariant"]
    # only the symplectic-positivity flag provides the invariant
    assert line.evidence[-1] == "nonvanishing-invariant: FAIL (no symplectic positivity)"


def test_applicability_tori_passes():
    assert applicability_check(tori_configuration(3, 2)).verdict == PASS


def test_applicability_needs_two_points():
    line = applicability_check(trivial_complement_configuration())
    assert line.verdict == FAIL
    assert "at-least-two-points" in failed_conditions(line)


def test_distinguish_trefoil_vs_unknot():
    line = distinguish(TREFOIL, UNKNOT, tori_configuration(3, 2))
    assert line.name == f"distinguish {TREFOIL.format()} vs {UNKNOT.format()}"
    assert line.verdict == PASS
    assert line.evidence[-2:] == ("coefficient multisets differ: [-1, 1, 1] vs [1]",
                                  "verdict SmoothlyInequivalent")


def test_distinguish_equal_inputs():
    line = distinguish(TREFOIL, TREFOIL, tori_configuration(3, 2))
    assert line.verdict == FAIL
    assert line.evidence[-2:] == (
        "coefficient multisets agree: the invariant does not separate them",
        "verdict NotDistinguished")


def test_distinguish_is_symmetric():
    config = tori_configuration(3, 2)
    forward = distinguish(TREFOIL, FIGURE_EIGHT, config)
    backward = distinguish(FIGURE_EIGHT, TREFOIL, config)
    assert forward.verdict == backward.verdict == PASS
    assert forward.evidence[-1] == backward.evidence[-1] == "verdict SmoothlyInequivalent"
    m1 = list(coefficient_multiset(alexander_of_braid(TREFOIL)))
    m2 = list(coefficient_multiset(alexander_of_braid(FIGURE_EIGHT)))
    assert forward.evidence[-2] == f"coefficient multisets differ: {m1} vs {m2}"
    assert backward.evidence[-2] == f"coefficient multisets differ: {m2} vs {m1}"


def test_distinguish_never_positive_without_applicability():
    line = distinguish(TREFOIL, UNKNOT, spheres_configuration(3, 2))
    assert line.verdict == FAIL
    assert line.evidence[-2:] == ("hypotheses not met: no conclusion drawn",
                                  "verdict NotDistinguished")


def test_pair_verdicts_rest_on_the_transform(monkeypatch):
    # with surgery leaving the invariant unchanged, every surgered invariant
    # is the canonical unit and no pair may be told apart
    monkeypatch.setattr("dpsurgery.sw.knot_surgery_transform",
                        lambda invariant, delta: invariant)
    line = distinguish(TREFOIL, UNKNOT, tori_configuration(3, 2))
    assert line.verdict == FAIL
    assert line.evidence[-2:] == (
        "coefficient multisets agree: the invariant does not separate them",
        "verdict NotDistinguished")
    report = family_report(tori_configuration(3, 2), 3, CaseParams("F3", 1, m=3, n=2))
    assert report.applicability.verdict == PASS
    assert len(report.pairs) == 3
    assert all(pair.verdict == FAIL for pair in report.pairs)


def test_torus_family_pairwise_distinct():
    config = tori_configuration(3, 2)
    deltas = [alexander_of_braid(torus_knot(r)) for r in range(1, 11)]
    multisets = [coefficient_multiset(d) for d in deltas]
    assert len(set(multisets)) == 10
    assert sorted(len(m) for m in multisets) == [3, 5, 7, 9, 11, 13, 15, 17, 19, 21]
    for i in range(10):
        for j in range(i + 1, 10):
            line = distinguish(torus_knot(i + 1), torus_knot(j + 1), config)
            assert line.verdict == PASS


def test_substitute_square_preserves_multisets():
    for braid in (TREFOIL, FIGURE_EIGHT, torus_knot(3)):
        delta = alexander_of_braid(braid)
        assert coefficient_multiset(delta) == coefficient_multiset(delta.substitute_square())


def test_family_report_tori():
    report = family_report(tori_configuration(3, 2), 3, CaseParams("F3", 1, m=3, n=2))
    assert report.applicability.verdict == PASS
    assert len(report.knots) == 3
    assert len(report.pairs) == 3
    assert all(group.verdict == PASS for group, _ in report.knots)
    assert all(pair.verdict == PASS for pair in report.pairs)
    assert len(report.lines()) == 1 + 3 * 2 + 3


def test_family_report_single_knot_has_no_pairs():
    report = family_report(tori_configuration(3, 2), 1, CaseParams("F3", 1, m=3, n=2))
    assert len(report.knots) == 1
    assert report.pairs == ()


def test_family_report_rational():
    report = family_report(rational_configuration(1, 3), 2, CaseParams("F2", 1, p=1, q=3))
    assert len(report.knots) == 2 and len(report.pairs) == 1
    assert all(group.verdict == PASS for group, _ in report.knots)
    assert report.applicability.verdict == PASS
    assert all(pair.verdict == PASS for pair in report.pairs)


def test_family_report_requires_hypothesis():
    with pytest.raises(HypothesisError, match=r"case hypothesis fails for F3\(m=2, n=3, k=2\)"):
        family_report(tori_configuration(2, 3), 2, CaseParams("F3", 2, m=2, n=3))
