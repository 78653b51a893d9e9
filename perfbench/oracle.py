"""Independent reference answers for the benchmark's requests.

Nothing here imports ``dpsurgery``.  Alexander polynomials come from the
reduced Burau representation (Delta(t) (1 + t + ... + t^(n-1)) equals
det(I - Burau(beta)) up to a unit), computed with sympy over Z[t], and for
the (2, 2r+1) torus knots also from the closed form sum_i (-t)^i.  Group
answers come from the arithmetic of each case (Z_m + Z_n, Z_q, Z + Z_gcd,
Z), written in invariant-factor form by ``workloads.group_text``.

``check(request, exit_code, stdout, error)`` returns a ``Finding``: whether
the output contradicts the reference (``failed``, with the reasons) and
whether its headline verdict is undecided (inconclusive).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from workloads import group_text

VERDICTS = ("pass", "fail", "inconclusive", "cited")


@dataclass
class Finding:
    failed: bool = False
    undecided: bool = False
    reasons: list[str] = field(default_factory=list)

    def contradict(self, reason: str):
        self.failed = True
        self.reasons.append(reason)


# -- polynomials -----------------------------------------------------------------

def normalize(coeffs: dict[int, int]) -> tuple[int, tuple[int, ...]]:
    """Alexander normal form of {degree: coefficient}: content 1, centred, value 1 at 1.

    Returned as (lowest degree, coefficients from that degree up).
    """
    terms = {d: c for d, c in coeffs.items() if c}
    if not terms:
        raise ValueError("zero polynomial has no Alexander normal form")
    low, high = min(terms), max(terms)
    dense = [terms.get(d, 0) for d in range(low, high + 1)]
    content = 0
    for c in dense:
        content = gcd(content, c)
    dense = [c // content for c in dense]
    if (high - low) % 2:
        raise ValueError("odd span: not an Alexander polynomial")
    if sum(dense) < 0:
        dense = [-c for c in dense]
    if sum(dense) != 1 or dense != dense[::-1]:
        raise ValueError("not symmetric with value 1 at t = 1")
    return -(high - low) // 2, tuple(dense)


_TERM = re.compile(r"^(\d+)?\s*(t(?:\^(-?\d+))?)?$")


def parse_poly(text: str) -> dict[int, int]:
    """Read the CLI's printed polynomial form, e.g. ``-t^-1 + 3 - t``."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    sign, first = 1, True
    for token in re.split(r"\s+([+-])\s+", text):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if first and token.startswith("-"):
            sign, token = -1, token[1:]
        first = False
        m = _TERM.match(token)
        if not m or not token:
            raise ValueError(f"cannot read polynomial term {token!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        degree = 0
        if m.group(2):
            degree = int(m.group(3)) if m.group(3) else 1
        out[degree] = out.get(degree, 0) + sign * coeff
    return out


@lru_cache(maxsize=None)
def burau_alexander(strands: int, letters: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Normalized Alexander polynomial of a knot braid closure, via reduced Burau."""
    if strands == 1:
        return 0, (1,)
    from sympy import ZZ, symbols
    from sympy.polys.matrices import DomainMatrix

    t = symbols("t")
    ring = ZZ[t]
    T, one, zero = ring.convert(t), ring.one, ring.zero
    n = strands - 1
    # columns of M, the product of the reduced Burau matrices.  A letter s_i
    # changes only column i: (t, -t, 1) on rows i-1, i, i+1.  An inverse
    # letter uses t * Burau(s_i)^-1, which is polynomial: every column times
    # t, column i replaced by (t, -1, 1); the powers of t are undone below.
    cols = [[one if r == c else zero for r in range(n)] for c in range(n)]
    inverses = 0
    for x in letters:
        i = abs(x) - 1
        left = cols[i - 1] if i > 0 else None
        right = cols[i + 1] if i < n - 1 else None
        if x > 0:
            new = [-T * v for v in cols[i]]
        else:
            inverses += 1
            new = [-v for v in cols[i]]
            cols = [[T * v for v in col] for col in cols]
        if left is not None:
            new = [a + T * b for a, b in zip(new, left)]
        if right is not None:
            new = [a + b for a, b in zip(new, right)]
        cols[i] = new
    rows = [[cols[c][r] for c in range(n)] for r in range(n)]
    scale = ring.convert(t ** inverses)
    shifted = [[(scale if r == c else zero) - rows[r][c] for c in range(n)] for r in range(n)]
    det = DomainMatrix(shifted, (n, n), ring).det()
    cyclotomic = sum((T ** k for k in range(strands)), zero)
    quotient, remainder = divmod(det, cyclotomic)
    if remainder:
        raise ArithmeticError("Burau determinant not divisible by 1 + ... + t^(n-1)")
    coeffs = {monom[0]: int(c) for monom, c in quotient.terms()}
    return normalize(coeffs)


def torus_alexander(r: int) -> tuple[int, tuple[int, ...]]:
    """Closed form for T(2, 2r+1): sum_{i=0}^{2r} (-t)^i, normalized."""
    return normalize({i: (-1) ** i for i in range(2 * r + 1)})


def multiset(form: tuple[int, tuple[int, ...]]) -> list[int]:
    return sorted(c for c in form[1] if c)


def parse_braid(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, rest = text.strip().partition(":")
    return int(head[1:]), tuple(int(x) for x in rest.split())


# -- report lines ------------------------------------------------------------------

def parse_lines(stdout: str) -> list[tuple[str, str, list[str]]]:
    out = []
    for raw in stdout.splitlines():
        parts = raw.split("\t")
        if len(parts) != 3 or parts[1] not in VERDICTS:
            raise ValueError(f"malformed machine line {raw[:80]!r}")
        out.append((parts[0], parts[1], parts[2].split("; ") if parts[2] else []))
    return out


def expected_exit(lines) -> int:
    verdicts = {v for _, v, _ in lines}
    if "fail" in verdicts:
        return 1
    if "inconclusive" in verdicts:
        return 3
    return 0


def _order(target: dict) -> int | None:
    if target["rank"] or any(q == 0 for q in target["orders"]):
        return None
    total = 1
    for q in target["orders"]:
        total *= q
    return total


_INDEX = re.compile(r"coset enumeration completed: index (\d+)")
_ORDERS = re.compile(r"enumerated orders (\d+) and (\d+)")
_AB_TARGET = re.compile(r"abelianization matches target (.+)$")
_AB_PAIR = re.compile(r"amalgam abelianization (.+), collapsed abelianization (.+)$")
_H1 = re.compile(r"complement H1 = (.+), expected (.+)$")


def _holds(finding: Finding, name: str, verdict: str):
    """A check whose statement is true: only fail (or cited) contradicts it."""
    if verdict not in ("pass", "inconclusive"):
        finding.contradict(f"{name}: {verdict}")


def _group_line(finding: Finding, name: str, verdict: str, evidence: list[str],
                target: dict, headline: bool):
    """A group verification: pass agrees, inconclusive is undecided, fail contradicts."""
    if verdict == "fail":
        finding.contradict(f"{name}: fail, but the group is {group_text(target)}")
    elif verdict == "inconclusive":
        if headline:
            finding.undecided = True
    elif verdict != "pass":
        finding.contradict(f"{name}: unexpected verdict {verdict}")
    order = _order(target)
    for fact in evidence:
        m = _INDEX.search(fact)
        if m and verdict == "pass" and order is not None and int(m.group(1)) != order:
            finding.contradict(f"{name}: index {m.group(1)}, reference order {order}")
        m = _AB_TARGET.search(fact)
        if m and m.group(1) != group_text(target):
            finding.contradict(f"{name}: target {m.group(1)}, reference {group_text(target)}")


def _homology_line(finding: Finding, name: str, verdict: str, evidence: list[str], target: dict):
    _holds(finding, name, verdict)
    m = _H1.search(evidence[0]) if evidence else None
    if not m or m.group(1) != group_text(target):
        finding.contradict(f"{name}: {evidence[:1]}, reference H1 {group_text(target)}")


def _check_surgery(finding: Finding, lines, expect: dict, argv: list[str]):
    target = expect["target"]
    params = dict(a.split("=", 1) for a in argv if "=" in a and not a.startswith("--"))
    seen = set()
    for name, verdict, evidence in lines:
        seen.add(name)
        if name == "homology":
            _homology_line(finding, name, verdict, evidence, target)
        elif name == "group":
            _group_line(finding, name, verdict, evidence, target, headline=False)
        elif name in ("h1-matches-abelianization", "hypothesis"):
            _holds(finding, name, verdict)
        elif name == "group-preserved":
            _group_line(finding, name, verdict, evidence, target, headline=True)
        elif name == "cross-validation":
            if verdict == "fail":
                finding.contradict("cross-validation: fail, but both paths present the target")
            order = _order(target)
            for fact in evidence:
                m = _ORDERS.search(fact)
                if m and order is not None and {int(m.group(1)), int(m.group(2))} != {order}:
                    finding.contradict(f"cross-validation: orders {m.groups()}, reference {order}")
                m = _AB_PAIR.search(fact)
                if m and {m.group(1), m.group(2)} != {group_text(target)}:
                    finding.contradict(f"cross-validation: {m.groups()}, reference {group_text(target)}")
        elif name == "embedding-tags":
            untwists = params["case"] == "F1" or params["k"] in ("1", "-1")
            first = evidence[0] if evidence else ""
            _holds(finding, name, verdict)
            if (first == "component 1: Standard") != untwists:
                finding.contradict(f"embedding-tags: {first!r}, untwisting expected: {untwists}")
        else:
            finding.contradict(f"unexpected check line {name!r}")
    missing = {"homology", "group", "hypothesis", "group-preserved", "cross-validation",
               "embedding-tags"} - seen
    if missing:
        finding.contradict(f"missing check lines {sorted(missing)}")


def _check_theorem_1_1(finding: Finding, lines, expect: dict):
    target, count = expect["target"], expect["count"]
    members = pairs = 0
    for name, verdict, evidence in lines:
        if name.startswith("group-preserved r="):
            members += 1
            _group_line(finding, name, verdict, evidence, target, headline=True)
        elif name.startswith("smoothly-distinct "):
            pairs += 1
            left, right = name[len("smoothly-distinct "):].split(" vs ")
            r1 = (len(parse_braid(left)[1]) - 1) // 2
            r2 = (len(parse_braid(right)[1]) - 1) // 2
            want = (f"coefficient multisets differ: {multiset(torus_alexander(r1))} "
                    f"vs {multiset(torus_alexander(r2))}")
            _holds(finding, name, verdict)
            if want not in evidence:
                finding.contradict(f"{name}: {verdict} {evidence[-1:]}, reference {want}")
        elif name == "topological-equivalence":
            if verdict != "cited":
                finding.contradict(f"{name}: {verdict}, expected cited")
        else:
            _holds(finding, name, verdict)
    if members != count or pairs != count * (count - 1) // 2:
        finding.contradict(f"{members} members and {pairs} pairs for count={count}")


def _check_theorem_7_2(finding: Finding, lines, expect: dict):
    count = expect["count"]
    want = {
        "group-preserved-per-knot": f"{count}/{count} knots verified",
        "sw-pairwise-distinct": f"{count * (count - 1) // 2}/{count * (count - 1) // 2} pairs",
    }
    seen = set()
    for name, verdict, evidence in lines:
        seen.add(name)
        if name == "conclusion" and verdict == "inconclusive":
            finding.undecided = True
        elif name == "topological-equivalence":
            if verdict != "cited":
                finding.contradict(f"{name}: {verdict}, expected cited")
        else:
            _holds(finding, name, verdict)
        if name in want and verdict == "pass" and not (evidence and evidence[0].startswith(want[name])):
            finding.contradict(f"{name}: {evidence[:1]}, reference {want[name]}")
    if "conclusion" not in seen:
        finding.contradict("missing conclusion line")


def _check_alexander(finding: Finding, lines, expect: dict):
    strands, letters = parse_braid(expect["braid"])
    reference = burau_alexander(strands, letters)
    if len(lines) != 1:
        finding.contradict(f"{len(lines)} lines for one braid")
        return
    name, verdict, evidence = lines[0]
    try:
        printed = normalize(parse_poly(evidence[0][len("polynomial "):]))
    except (IndexError, ValueError) as err:
        finding.contradict(f"{name}: unreadable polynomial ({err})")
        return
    _holds(finding, name, verdict)
    if printed != reference:
        finding.contradict(f"{name}: {evidence[0]!r}, reference {reference}")
    if len(evidence) < 2 or evidence[1] != f"coefficient multiset {multiset(reference)}":
        finding.contradict(f"{name}: {evidence[1:2]}, reference multiset {multiset(reference)}")


def _check_scenario(finding: Finding, lines, expect: dict, checks: list[dict]):
    by_name = {}
    for index, (entry, want) in enumerate(zip(checks, expect["entries"])):
        if "builtin" in entry:
            params = entry["params"]
            title = entry["builtin"] + " " + " ".join(f"{k}={params[k]}" for k in sorted(params))
            prefix = f"{title} :: "
        else:
            prefix = f"checks[{index}] "
        by_name[prefix + "homology"] = ("homology", want["homology"])
        by_name[prefix + "group"] = ("group", want["group"])
        by_name[prefix + "h1-matches-abelianization"] = ("h1", None)
    seen = set()
    for name, verdict, evidence in lines:
        role, target = by_name.get(name, (None, None))
        seen.add(name)
        if role == "homology":
            _homology_line(finding, name, verdict, evidence, target)
        elif role == "group":
            _group_line(finding, name, verdict, evidence, target, headline=True)
        elif role == "h1":
            _holds(finding, name, verdict)
        else:
            finding.contradict(f"unexpected check line {name!r}")
    groups = {name for name, (role, _) in by_name.items() if role == "group"}
    if not groups <= seen:
        finding.contradict(f"missing group lines {sorted(groups - seen)}")


def check(request: dict, exit_code: int | None, stdout: str, error: str | None) -> Finding:
    """Compare one request's output with the reference answer."""
    finding = Finding()
    if error is not None:
        finding.contradict(f"raised {error}")
        return finding
    if exit_code == 2:
        finding.contradict("exit 2 (usage error) on valid input")
        return finding
    try:
        lines = parse_lines(stdout)
    except ValueError as err:
        finding.contradict(str(err))
        return finding
    if exit_code != expected_exit(lines):
        finding.contradict(f"exit {exit_code} disagrees with the verdicts ({expected_exit(lines)})")
    expect = request["expect"]
    workload = expect["workload"]
    if workload == "surgery-sweep":
        _check_surgery(finding, lines, expect, request["argv"])
    elif workload == "alexander-batch":
        _check_alexander(finding, lines, expect)
    elif workload == "theorem-family":
        if expect["theorem"] == "theorem-1-1":
            _check_theorem_1_1(finding, lines, expect)
        else:
            _check_theorem_7_2(finding, lines, expect)
    else:
        _check_scenario(finding, lines, expect, json.loads(request["text"])["checks"])
    return finding
