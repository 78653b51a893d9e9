"""Certificates for exotic finite-abelian branched-cover actions.

The two-stage branched cover of a configuration whose complement group is
Z_m + Z_n (meridians generating the summands, gcd(m, n) = 1) carries a
Z_m + Z_n action.  Surgering the branch configuration by a family of knots
with pairwise distinct Alexander coefficient multisets changes the smooth
structure of the action but, when the arithmetic on the twist allows the
covers to be untwisted, not the underlying smooth manifold or topological
type.  Both stages report in `CheckLine`s: `build_cover_plan` returns the
`cover-plan` line, and `exotic_action_certificate` returns every
computational check, each `pass`, `fail`, `inconclusive` when a bound cut an
enumeration short, or `cited` for the one input taken on citation
(topological equivalence of the branch sets), followed by a `conclusion`
line whose verdict combines the others by the report rule `combined`.
"""

from __future__ import annotations

from math import gcd

from .configurations import Configuration
from .presentations import AbelianGroup, exponent_matrix
from .reports import CITED, FAIL, INCONCLUSIVE, PASS, CheckLine, combined, verdict_of
from .snf import element_order_in_cokernel
from .surgery import CaseParams
from .sw import family_report
from .verify import Bounds, DEFAULT_BOUNDS, Status, verify_abelian_isomorphism


def _meridian_order(config: Configuration, role: str) -> int | None:
    p = config.pi1
    word = p.label(role)
    vector = [word.exponent_sum(g) for g in range(p.ngens)]
    return element_order_in_cokernel(exponent_matrix(p), p.ngens, vector)


def build_cover_plan(config: Configuration, m: int, n: int,
                     bounds: Bounds = DEFAULT_BOUNDS) -> CheckLine:
    """The `cover-plan` line: the two-stage branched cover data, or why not.

    Fails unless gcd(m, n) = 1, the complement group verifies as Z_m + Z_n,
    and the two meridians generate the summands (their homology classes have
    orders exactly m and n).  An Inconclusive group verdict gives an
    `inconclusive` line, so it is never reported as a refutation.
    """
    def refused(message: str) -> CheckLine:
        return CheckLine("cover-plan", FAIL, (message,))

    if len(config.components) != 2:
        return refused("cover plan needs a two-component configuration")
    if gcd(m, n) != 1:
        return refused(f"gcd(m, n) = gcd({m}, {n}) = {gcd(m, n)} != 1")
    if config.pi1 is None:
        return refused("configuration carries no complement presentation")
    target = AbelianGroup.of_orders(m, n)
    verdict = verify_abelian_isomorphism(config.pi1, target, bounds)
    if verdict.status is not Status.ISOMORPHIC:
        return CheckLine("cover-plan", verdict_of(verdict.status), (
            f"complement group did not verify as {target}: {verdict.status.value}; "
            + "; ".join(verdict.evidence),))
    order1 = _meridian_order(config, "mu1")
    order2 = _meridian_order(config, "mu2")
    if order1 != m or order2 != n:
        return refused(f"meridians must generate the summands: found orders {order1}, "
                       f"{order2}, need {m}, {n}")
    return CheckLine("cover-plan", PASS, (
        f"branched cover plan for Z_{m} + Z_{n}:",
        f"  stage one: Z_{n} cover branched over component 2, meridian mu2 -> 1",
        f"  stage two: Z_{m} cover branched over the preimage of component 1",
        f"  meridian orders: mu1 -> {order1}, mu2 -> {order2}"))


def exotic_action_certificate(config: Configuration, m: int, n: int, k: int, count: int,
                              bounds: Bounds = DEFAULT_BOUNDS) -> tuple[CheckLine, ...]:
    """Run the full check pipeline for a family of surgered branch sets.

    Computed checks: (a) gcd(m, k*n) = 1, so the complement group survives
    each surgery (verified per knot); (b) gcd(k, m) = 1, so the twist-spun
    branch sets unknot in the covers and the total space is unchanged;
    (c) pairwise distinct invariants across the family.  Topological
    equivalence of the branch sets is recorded as a citation, not computed.
    The last line, `conclusion`, combines the verdicts of the others.
    """
    if count < 2:
        raise ValueError("a family needs at least two members")
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
        family = family_report(config, count, CaseParams("F3", k, m=m, n=n), bounds)
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
    return (*checks, CheckLine("conclusion", verdict, (conclusion,)))
