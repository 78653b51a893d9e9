"""Certificates for exotic finite-abelian branched-cover actions.

The two-stage branched cover of a configuration whose complement group is
Z_m + Z_n (meridians generating the summands, gcd(m, n) = 1) carries a
Z_m + Z_n action.  Surgering the branch configuration by a family of knots
with pairwise distinct Alexander coefficient multisets changes the smooth
structure of the action but, when the arithmetic on the twist allows the
covers to be untwisted, not the underlying smooth manifold or topological
type.  The certificate runs every computational check and returns each as a
report `CheckLine`: `pass`, `fail`, `inconclusive` when a bound cut an
enumeration short, or `cited` for the one input taken on citation
(topological equivalence of the branch sets).  Its verdict combines the
lines by the report rule `combined`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .configurations import Configuration
from .presentations import AbelianGroup, exponent_matrix
from .reports import CITED, FAIL, INCONCLUSIVE, PASS, CheckLine, combined
from .snf import element_order_in_cokernel
from .surgery import CaseParams
from .sw import family_report
from .verify import Bounds, DEFAULT_BOUNDS, Status, Verdict, verify_abelian_isomorphism


class CoverPlanError(ValueError):
    """Raised when a configuration cannot support the two-stage cover."""


class CoverPlanInconclusive(CoverPlanError):
    """Raised when the complement group was not decided within the bounds."""


@dataclass(frozen=True)
class CoverPlan:
    m: int
    n: int
    stage_one: str
    stage_two: str
    config: Configuration
    group_verdict: Verdict
    meridian_orders: tuple[int, int]

    def describe(self) -> list[str]:
        return [f"branched cover plan for Z_{self.m} + Z_{self.n}:",
                f"  stage one: {self.stage_one}",
                f"  stage two: {self.stage_two}",
                f"  meridian orders: mu1 -> {self.meridian_orders[0]}, "
                f"mu2 -> {self.meridian_orders[1]}"]


def _meridian_order(config: Configuration, role: str) -> int | None:
    p = config.pi1
    word = p.label_word(role)
    vector = [word.exponent_sum(g) for g in range(p.ngens)]
    return element_order_in_cokernel(exponent_matrix(p), p.ngens, vector)


def build_cover_plan(config: Configuration, m: int, n: int,
                     bounds: Bounds = DEFAULT_BOUNDS) -> CoverPlan:
    """Validate and assemble the two-stage branched cover data.

    Fails unless gcd(m, n) = 1, the complement group verifies as Z_m + Z_n,
    and the two meridians generate the summands (their homology classes have
    orders exactly m and n).  An Inconclusive group verdict raises
    `CoverPlanInconclusive`, so it is never reported as a refutation.
    """
    if len(config.components) != 2:
        raise CoverPlanError("cover plan needs a two-component configuration")
    if gcd(m, n) != 1:
        raise CoverPlanError(f"gcd(m, n) = gcd({m}, {n}) = {gcd(m, n)} != 1")
    if config.pi1 is None:
        raise CoverPlanError("configuration carries no complement presentation")
    target = AbelianGroup.of_orders(m, n)
    verdict = verify_abelian_isomorphism(config.pi1, target, bounds)
    if verdict.status is not Status.ISOMORPHIC:
        error = CoverPlanInconclusive if verdict.status is Status.INCONCLUSIVE else CoverPlanError
        raise error(
            f"complement group did not verify as {target}: {verdict.status.value}; "
            + "; ".join(verdict.evidence))
    order1 = _meridian_order(config, "mu1")
    order2 = _meridian_order(config, "mu2")
    if order1 != m or order2 != n:
        raise CoverPlanError(
            f"meridians must generate the summands: found orders {order1}, {order2}, "
            f"need {m}, {n}")
    return CoverPlan(
        m=m, n=n,
        stage_one=f"Z_{n} cover branched over component 2, meridian mu2 -> 1",
        stage_two=f"Z_{m} cover branched over the preimage of component 1",
        config=config,
        group_verdict=verdict,
        meridian_orders=(order1, order2))


@dataclass(frozen=True)
class ActionCertificate:
    checks: tuple[CheckLine, ...]
    conclusion: str

    @property
    def verdict(self) -> str:
        return combined(c.verdict for c in self.checks)


def exotic_action_certificate(plan: CoverPlan, k: int, count: int,
                              bounds: Bounds = DEFAULT_BOUNDS) -> ActionCertificate:
    """Run the full check pipeline for a family of surgered branch sets.

    Computed checks: (a) gcd(m, k*n) = 1, so the complement group survives
    each surgery (verified per knot); (b) gcd(k, m) = 1, so the twist-spun
    branch sets unknot in the covers and the total space is unchanged;
    (c) pairwise distinct invariants across the family.  Topological
    equivalence of the branch sets is recorded as a citation, not computed.
    """
    if count < 2:
        raise ValueError("a family needs at least two members")
    m, n = plan.m, plan.n
    checks: list[CheckLine] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(CheckLine(name, PASS if ok else FAIL, (detail,)))

    g_preserve = gcd(m, k * n)
    check_a = g_preserve == 1
    check("group-preservation-gcd", check_a,
          f"gcd(m, k*n) = gcd({m}, {k}*{n}) = {g_preserve}"
          + ("" if check_a else " != 1: the group claim is unavailable"))

    g_plotnick = gcd(k, m)
    check_b = g_plotnick == 1
    check("plotnick-gcd", check_b,
          f"gcd(k, m) = gcd({k}, {m}) = {g_plotnick}"
          + ("" if check_b else " != 1: the cover need not untwist"))

    if check_a:
        family = family_report(plan.config, count, CaseParams.f3(m, n, k), bounds)
        groups = [lines[0].verdict for lines in family.knots]
        undecided = groups.count(INCONCLUSIVE)
        checks.append(CheckLine(
            "group-preserved-per-knot", combined(groups),
            (f"{groups.count(PASS)}/{len(groups)} knots verified "
             f"isomorphic to Z_{m} + Z_{n}" + (f", {undecided} inconclusive" if undecided else ""),)))
        distinct = [line.verdict for line in family.pairs].count(PASS)
        check("sw-pairwise-distinct",
              family.applicability.verdict == PASS and distinct == len(family.pairs),
              f"{distinct}/{len(family.pairs)} pairs distinguished")
    else:
        check("group-preserved-per-knot", False, "skipped: group-preservation gcd failed")
        check("sw-pairwise-distinct", False, "skipped: group-preservation gcd failed")

    checks.append(CheckLine(
        "topological-equivalence", CITED,
        ("branch sets are topologically isotopic (surgery-theoretic result, "
         "recorded on citation; not recomputed here)",)))

    verdict = combined(c.verdict for c in checks)
    open_checks = ", ".join(c.name for c in checks if c.verdict not in (PASS, CITED))
    if verdict == PASS:
        conclusion = (f"desk-scale certificate: {count} smoothly inequivalent, "
                      f"topologically equivalent Z_{m} + Z_{n} actions of standard type")
    elif verdict == INCONCLUSIVE:
        conclusion = "certificate inconclusive at: " + open_checks
    else:
        conclusion = "certificate FAILED at: " + open_checks
    return ActionCertificate(tuple(checks), conclusion)
