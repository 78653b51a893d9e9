"""Formal gauge-theoretic bookkeeping and the smooth-inequivalence test.

No gauge theory is computed here.  A relative invariant is carried as an
integer Laurent polynomial in the rim-torus variable r together with a
nonvanishing flag; for a positively-intersecting symplectic configuration
the flag is justified externally and the canonical unit polynomial is used.
Surgery by a knot multiplies the invariant by its Alexander polynomial in
r^2, so two surgered configurations can only be diffeomorphic when the two
Alexander coefficient multisets agree; unequal multisets certify smooth
inequivalence once the hypotheses are in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alexander import alexander_of_braid, coefficient_multiset, knot_family
from .configurations import Configuration, algebraic_intersection
from .knots import BraidWord
from .laurent import LaurentPoly
from .surgery import CaseParams, SurgerySpec, check_case_hypothesis, surgered_components, \
    verify_group_preserved
from .verify import Bounds, DEFAULT_BOUNDS, Verdict


@dataclass(frozen=True)
class FormalSW:
    value: LaurentPoly
    nonvanishing: bool
    spinc_label: str

    def __post_init__(self):
        if self.nonvanishing and self.value.is_zero():
            raise ValueError("a nonvanishing invariant cannot be the zero polynomial")

    @staticmethod
    def canonical() -> "FormalSW":
        return FormalSW(LaurentPoly.one(), True, "taubes-canonical")


def knot_surgery_transform(sw: FormalSW, delta: LaurentPoly) -> FormalSW:
    """Multiply the invariant by delta(r^2); nonvanishing survives delta != 0."""
    return FormalSW(sw.value * delta.substitute_square(),
                    sw.nonvanishing and not delta.is_zero(),
                    sw.spinc_label)


@dataclass(frozen=True)
class ApplicabilityAudit:
    ok: bool
    conditions: tuple[tuple[str, bool, str], ...]

    def lines(self) -> list[str]:
        out = []
        for name, passed, detail in self.conditions:
            out.append(f"{name}: {'pass' if passed else 'FAIL'} ({detail})")
        return out


def applicability_check(config: Configuration, sw: FormalSW | None = None) -> ApplicabilityAudit:
    """Hypotheses of the smooth-inequivalence test for a 2-component configuration.

    Needs a nonzero pairwise intersection number, at least two double points,
    and a nonvanishing invariant: either the symplectic-positivity flag (the
    canonical unit invariant is then used) or an explicitly supplied one.
    """
    if len(config.components) != 2:
        raise ValueError("applicability check needs a two-component configuration")
    conditions = []
    pairing = algebraic_intersection(config, 0, 1)
    conditions.append(("nonzero-intersection", pairing != 0,
                       f"component classes pair to {pairing}"))
    points = len(config.double_points)
    conditions.append(("at-least-two-points", points >= 2,
                       f"{points} double points"))
    if sw is not None:
        conditions.append(("nonvanishing-invariant", sw.nonvanishing,
                           f"explicit invariant with spin-c label {sw.spinc_label!r}"))
    else:
        conditions.append(("nonvanishing-invariant", config.symplectic_positive,
                           "symplectic with positive intersections: canonical "
                           "nonvanishing invariant" if config.symplectic_positive
                           else "no symplectic positivity and no explicit invariant"))
    return ApplicabilityAudit(all(passed for _, passed, _ in conditions),
                              tuple(conditions))


@dataclass(frozen=True)
class DistinguishReport:
    pair: tuple[str, str]
    multisets: tuple[tuple[int, ...], tuple[int, ...]]
    verdict: str  # "SmoothlyInequivalent" | "NotDistinguished"
    audit: tuple[str, ...]


def _compare(name1: str, multiset1: tuple[int, ...], name2: str,
             multiset2: tuple[int, ...], audit: ApplicabilityAudit) -> DistinguishReport:
    lines = tuple(audit.lines())
    if not audit.ok:
        return DistinguishReport((name1, name2), (multiset1, multiset2),
                                 "NotDistinguished",
                                 lines + ("hypotheses not met: no conclusion drawn",))
    if multiset1 != multiset2:
        return DistinguishReport(
            (name1, name2), (multiset1, multiset2), "SmoothlyInequivalent",
            lines + (f"coefficient multisets differ: {list(multiset1)} vs {list(multiset2)}",))
    return DistinguishReport(
        (name1, name2), (multiset1, multiset2), "NotDistinguished",
        lines + ("coefficient multisets agree: the invariant does not separate them",))


def distinguish(knot1: BraidWord, knot2: BraidWord, config: Configuration) -> DistinguishReport:
    """Compare the two surgered configurations through the invariant transform."""
    audit = applicability_check(config)
    m1 = coefficient_multiset(alexander_of_braid(knot1))
    m2 = coefficient_multiset(alexander_of_braid(knot2))
    return _compare(knot1.format(), m1, knot2.format(), m2, audit)


@dataclass(frozen=True)
class FamilyMember:
    index: int
    knot: BraidWord
    group_verdict: Verdict
    component_tags: tuple[str, ...]


@dataclass(frozen=True)
class FamilyReport:
    applicability: ApplicabilityAudit
    members: tuple[FamilyMember, ...]
    pairs: tuple[DistinguishReport, ...]

    def all_pairs_distinct(self) -> bool:
        return all(p.verdict == "SmoothlyInequivalent" for p in self.pairs)


def family_report(config: Configuration, count: int, case: CaseParams,
                  bounds: Bounds = DEFAULT_BOUNDS) -> FamilyReport:
    """Surger a family of torus knots at the first double point and certify the lot.

    For each knot: record the embedding tags of the surgered components and
    verify the group is preserved, both from the one knot group the family
    built; then compare every pair through the invariant.  Requires the case
    hypothesis and the applicability hypotheses.
    """
    if not check_case_hypothesis(case):
        raise ValueError(f"case hypothesis fails for {case.describe()}")
    audit = applicability_check(config)
    family = knot_family(count)
    members = []
    for i, (braid, knot, _) in enumerate(family, start=1):
        components = surgered_components(SurgerySpec(config, 0, braid, case.k), case.k)
        verdict = verify_group_preserved(case, knot, bounds)
        tags = tuple(c.embedding_tag.describe() for c in components)
        members.append(FamilyMember(i, braid, verdict, tags))
    pairs = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            b1, _, d1 = family[i]
            b2, _, d2 = family[j]
            pairs.append(_compare(b1.format(), coefficient_multiset(d1),
                                  b2.format(), coefficient_multiset(d2), audit))
    return FamilyReport(audit, tuple(members), tuple(pairs))
