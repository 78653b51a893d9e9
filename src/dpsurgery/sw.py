"""Formal gauge-theoretic bookkeeping and the smooth-inequivalence test.

No gauge theory is computed here.  A relative invariant is carried as an
integer Laurent polynomial in the rim-torus variable r; for a
positively-intersecting symplectic configuration it is nonvanishing by an
external result, and the canonical unit polynomial 1 is used.  Surgery by a
knot multiplies the invariant by its Alexander polynomial in r^2
(Fintushel-Stern), so two surgered configurations can only be
diffeomorphic when the two transformed invariants' coefficient multisets
agree; unequal multisets certify smooth inequivalence once the hypotheses
are in place.

Results are report `CheckLine`s: a pair passes exactly when the hypotheses
hold and the multisets differ (`verdict SmoothlyInequivalent`, else `verdict
NotDistinguished`), and a family states its case hypothesis and untwisting once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alexander import alexander_of_braid, coefficient_multiset, knot_family
from .configurations import STANDARD, Configuration, algebraic_intersection
from .knots import BraidWord, wirtinger_presentation
from .laurent import LaurentPoly
from .reports import FAIL, PASS, CheckLine, line_from_verdict
from .surgery import CaseParams, SurgerySpec, hypothesis_line, surgered_components, \
    verify_group_preserved
from .verify import Bounds, DEFAULT_BOUNDS


def knot_surgery_transform(invariant: LaurentPoly, delta: LaurentPoly) -> LaurentPoly:
    """The invariant after surgery by a knot with Alexander polynomial
    delta: the invariant times delta(r^2)."""
    return invariant * delta.substitute_square()


def _surgered_multiset(delta: LaurentPoly) -> tuple[int, ...]:
    """Coefficient multiset of the canonical invariant after surgery by a
    knot with Alexander polynomial delta: what a pair verdict compares."""
    return coefficient_multiset(knot_surgery_transform(LaurentPoly.one(), delta))


def applicability_check(config: Configuration) -> CheckLine:
    """The `applicability` line: hypotheses of the smooth-inequivalence test
    for a 2-component configuration, one `<name>: pass|FAIL (<detail>)` fact each.

    Needs a nonzero pairwise intersection number, at least two double points,
    and a nonvanishing invariant, which the symplectic-positivity flag
    provides (the canonical unit invariant is then used).
    """
    if len(config.components) != 2:
        raise ValueError("applicability check needs a two-component configuration")
    pairing = algebraic_intersection(config, 0, 1)
    points = len(config.double_points)
    nonvanishing = (config.symplectic_positive,
                    "symplectic with positive intersections: canonical "
                    "nonvanishing invariant" if config.symplectic_positive
                    else "no symplectic positivity")
    conditions = (("nonzero-intersection", pairing != 0,
                   f"component classes pair to {pairing}"),
                  ("at-least-two-points", points >= 2, f"{points} double points"),
                  ("nonvanishing-invariant", *nonvanishing))
    return CheckLine("applicability",
                     PASS if all(passed for _, passed, _ in conditions) else FAIL,
                     tuple(f"{name}: {'pass' if passed else 'FAIL'} ({detail})"
                           for name, passed, detail in conditions))


def _compare(multiset1: tuple[int, ...], multiset2: tuple[int, ...],
             applicability: CheckLine) -> tuple[str, str, str]:
    """Whether the invariant separates two surgeries: (verdict, its
    `verdict ...` fact, the fact it rests on).  Only applicable hypotheses
    and unequal coefficient multisets pass."""
    if applicability.verdict != PASS:
        verdict, fact = FAIL, "hypotheses not met: no conclusion drawn"
    elif multiset1 != multiset2:
        verdict, fact = PASS, (f"coefficient multisets differ: {list(multiset1)} "
                               f"vs {list(multiset2)}")
    else:
        verdict, fact = FAIL, "coefficient multisets agree: the invariant does not separate them"
    outcome = "SmoothlyInequivalent" if verdict == PASS else "NotDistinguished"
    return verdict, f"verdict {outcome}", fact


def distinguish(knot1: BraidWord, knot2: BraidWord, config: Configuration) -> CheckLine:
    """The `distinguish A vs B` line: the two surgered configurations compared
    through the invariant transform, after the applicability facts."""
    applicability = applicability_check(config)
    verdict, outcome, fact = _compare(_surgered_multiset(alexander_of_braid(knot1)),
                                      _surgered_multiset(alexander_of_braid(knot2)),
                                      applicability)
    return CheckLine(f"distinguish {knot1.format()} vs {knot2.format()}", verdict,
                     applicability.evidence + (fact, outcome))


@dataclass(frozen=True)
class FamilyReport:
    """A knotted family's report lines: applicability, hypothesis, group-preserved
    per knot, component-1-standard once, smoothly-distinct per pair."""
    applicability: CheckLine
    hypothesis: CheckLine
    groups: tuple[CheckLine, ...]
    standard: CheckLine
    pairs: tuple[CheckLine, ...]

    def lines(self) -> tuple[CheckLine, ...]:
        return (self.applicability, self.hypothesis, *self.groups, self.standard, *self.pairs)


def family_report(config: Configuration, count: int, case: CaseParams,
                  bounds: Bounds = DEFAULT_BOUNDS) -> FamilyReport:
    """Surger a family of torus knots at the first double point and certify the lot.

    Per knot `r=<i> <braid>`, verify the group is preserved on the
    Tietze-reduced Wirtinger group of the diagram its polynomial came from
    (for F1, on the raw one after a cap; `HypothesisError` outside the case
    hypothesis).  One line says whether component 1 untwists: the rule reads
    the twist and the point (0, 1, .), never the knot.  Then every pair is compared.
    """
    applicability = applicability_check(config)
    family = knot_family(count)
    groups, tags = [], []
    for i, (braid, diagram, _) in enumerate(family, start=1):
        knot = wirtinger_presentation(diagram)
        preserved = verify_group_preserved(case, knot.simplified(), bounds, knot)
        groups.append(line_from_verdict(f"group-preserved r={i} {braid.format()}", preserved))
        tags.append(surgered_components(SurgerySpec(config, 0, braid, case.k))[0].embedding_tag)
    untwisted = all(tag == STANDARD for tag in tags)
    members = [f"r=1..{count}"] if untwisted else [f"r={i}" for i in range(1, count + 1)]
    standard = CheckLine("component-1-standard", PASS if untwisted else FAIL, tuple(
        f"component 1 embedding tag for {member}: {tag}" for member, tag in zip(members, tags)))
    multisets = [(braid, _surgered_multiset(delta)) for braid, _, delta in family]
    pairs = []
    for i, (b1, m1) in enumerate(multisets):
        for b2, m2 in multisets[i + 1:]:
            verdict, outcome, fact = _compare(m1, m2, applicability)
            pairs.append(CheckLine(f"smoothly-distinct {b1.format()} vs {b2.format()}",
                                   verdict, (outcome, fact)))
    return FamilyReport(applicability, hypothesis_line(case), tuple(groups), standard, tuple(pairs))
