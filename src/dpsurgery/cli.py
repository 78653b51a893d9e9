"""Command line interface.

Subcommands:

* ``verify <builtin-or-scenario> [key=value ...]``  run a builtin pipeline
  (nodal, rational, spheres, tori, theorem-1-1, theorem-7-2) or, when the
  argument names an existing file, a JSON scenario;
* ``surgery case=F2 p=1 q=3 k=1 [knot="B2: 1 1 1"]``  verify one twisted
  surgery, including the cross-validation of both construction paths;
* ``alexander <braid> [<braid> ...]`` or ``alexander family count=N``;
* ``distinguish <braid> <braid> [m= n=]``  compare two surgeries on the
  torus configuration (the default invariant-carrying configuration);
* ``actions m= n= k= [count=]``  branched-cover action certificate;
* ``snf "<row; row; ...>"``  Smith normal form with transforms.

Common flags: ``--bounds-cosets N``, ``--bounds-rules N``,
``--format text|machine``.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage or parse error, 3 inconclusive outcomes only.
"""

from __future__ import annotations

import argparse
import os
import sys

from .alexander import alexander_of_braid, coefficient_multiset, knot_family
from .knots import BraidWord
from .reports import EXIT_USAGE, FAIL, PASS, CheckLine, Report
from .scenarios import (BUILTIN_NAMES, ParamError, ScenarioError,
                        run_builtin, run_scenario, tori_configuration)
from .snf import mat_mul, smith_normal_form
from .surgery import CaseParams
from .sw import distinguish
from .verify import Bounds


def _parse_kv(tokens: list[str]) -> dict:
    params: dict[str, object] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParamError(f"expected key=value, got {token!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _case_from_params(params: dict) -> CaseParams:
    tag = str(params.pop("case", "")).upper()
    k = int(params.pop("k", 0))
    try:
        if tag == "F1":
            return CaseParams.f1(int(params.pop("d")), k)
        if tag == "F2":
            return CaseParams.f2(int(params.pop("p")), int(params.pop("q")), k)
        if tag == "F3":
            return CaseParams.f3(int(params.pop("m")), int(params.pop("n")), k)
    except KeyError as err:
        raise ParamError(f"case={tag} needs parameter {err}") from None
    raise ParamError("surgery needs case=F1 (with d=), F2 (with p= q=) or F3 (with m= n=)")


def _cmd_verify(args, bounds: Bounds) -> Report:
    name = args.target
    params = _parse_kv(args.params)
    if name in BUILTIN_NAMES:
        return run_builtin(name, params, bounds)
    if os.path.exists(name):
        if params:
            raise ParamError("scenario runs take no key=value parameters")
        # explicit bounds flags override the scenario file's own bounds
        explicit = hasattr(args, "bounds_cosets") or hasattr(args, "bounds_rules")
        return run_scenario(name, bounds if explicit else None)
    raise ParamError(f"{name!r} is neither a builtin ({', '.join(BUILTIN_NAMES)}) "
                     f"nor an existing scenario file")


def _cmd_surgery(args, bounds: Bounds) -> Report:
    params = _parse_kv(args.params)
    knot_text = str(params.pop("knot", "B2: 1 1 1"))
    case = _case_from_params(params)
    if params:
        raise ParamError(f"unused parameters: {', '.join(sorted(params))}")
    braid = BraidWord.parse(knot_text)
    if not braid.is_knot_closure():
        raise ParamError(f"braid {braid.format()} does not close to a knot")
    if case.tag == "F1":
        config_params = {"d1": 1, "d2": case.d, "k": case.k, "knot": knot_text}
        return run_builtin("nodal", config_params, bounds)
    if case.tag == "F2":
        return run_builtin("rational", {"p": case.p, "q": case.q, "k": case.k,
                                        "knot": knot_text}, bounds)
    return run_builtin("tori", {"m": case.m, "n": case.n, "k": case.k,
                                "knot": knot_text}, bounds)


def _cmd_alexander(args, bounds: Bounds) -> Report:
    lines = []
    if args.braids and args.braids[0] == "family":
        params = _parse_kv(args.braids[1:])
        count = int(params.pop("count", 10))
        if params:
            raise ParamError(f"unused parameters: {', '.join(sorted(params))}")
        if count < 1:
            raise ParamError("count must be >= 1")
        for index, (braid, _, delta) in enumerate(knot_family(count), start=1):
            multiset = coefficient_multiset(delta)
            lines.append(CheckLine(
                f"alexander K_{index} {braid.format()}", PASS,
                (f"polynomial {delta.format()}",
                 f"coefficient multiset {list(multiset)}")))
        return Report(f"alexander family count={count}", tuple(lines))
    if not args.braids:
        raise ParamError("alexander needs at least one braid word or 'family count=N'")
    for text in args.braids:
        braid = BraidWord.parse(text)
        if not braid.is_knot_closure():
            raise ParamError(f"braid {braid.format()} does not close to a knot")
        delta = alexander_of_braid(braid)
        lines.append(CheckLine(
            f"alexander {braid.format()}", PASS,
            (f"polynomial {delta.format()}",
             f"coefficient multiset {list(coefficient_multiset(delta))}")))
    return Report("alexander", tuple(lines))


def _cmd_distinguish(args, bounds: Bounds) -> Report:
    params = _parse_kv(args.params)
    m = int(params.pop("m", 3))
    n = int(params.pop("n", 2))
    if params:
        raise ParamError(f"unused parameters: {', '.join(sorted(params))}")
    knot1 = BraidWord.parse(args.braid1)
    knot2 = BraidWord.parse(args.braid2)
    for braid in (knot1, knot2):
        if not braid.is_knot_closure():
            raise ParamError(f"braid {braid.format()} does not close to a knot")
    config = tori_configuration(m, n)
    report = distinguish(knot1, knot2, config)
    ok = report.verdict == "SmoothlyInequivalent"
    line = CheckLine(f"distinguish {report.pair[0]} vs {report.pair[1]}",
                     PASS if ok else FAIL,
                     tuple(report.audit) + (f"verdict {report.verdict}",))
    return Report(f"distinguish on tori m={m} n={n}", (line,))


def _cmd_actions(args, bounds: Bounds) -> Report:
    params = _parse_kv(args.params)
    return run_builtin("theorem-7-2", params, bounds)


def _cmd_snf(args, bounds: Bounds) -> Report:
    rows = []
    text = args.matrix.strip()
    if not text:
        raise ParamError("empty matrix")
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(tok) for tok in chunk.split()])
        except ValueError:
            raise ParamError(f"bad matrix row {chunk!r}") from None
    if not rows:
        raise ParamError("empty matrix")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ParamError("ragged matrix rows")
    d, u, v = smith_normal_form(rows)
    ok = mat_mul(mat_mul(u, rows), v) == d
    diag = [d[i][i] for i in range(min(len(d), width))]

    def fmt(mat):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat) + "]"

    return Report("snf", (CheckLine(
        "snf", PASS if ok else FAIL,
        (f"D = {fmt(d)}", f"U = {fmt(u)}", f"V = {fmt(v)}",
         f"diagonal {diag}", f"U*M*V == D: {ok}")),))


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset flags from clobbering values parsed
    # before the subcommand; real defaults are applied in main()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bounds-cosets", type=int, default=argparse.SUPPRESS,
                        help="coset table cap (default 100000)")
    common.add_argument("--bounds-rules", type=int, default=argparse.SUPPRESS,
                        help="rewrite rule cap (default 500)")
    common.add_argument("--format", choices=("text", "machine"),
                        default=argparse.SUPPRESS,
                        help="report format (default text)")

    parser = argparse.ArgumentParser(
        prog="dpsurgery",
        description="exact verification engine for twisted double point surgery",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run a builtin pipeline or a scenario file")
    p.add_argument("target")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("surgery", parents=[common],
                       help="verify one twisted double point surgery")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("alexander", parents=[common],
                       help="Alexander polynomials of braid closures")
    p.add_argument("braids", nargs="*")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("distinguish", parents=[common],
                       help="smooth-inequivalence comparison")
    p.add_argument("braid1")
    p.add_argument("braid2")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("actions", parents=[common],
                       help="branched-cover action certificate")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_actions)

    p = sub.add_parser("snf", parents=[common],
                       help="Smith normal form of an integer matrix")
    p.add_argument("matrix", help='rows separated by ";", entries by spaces')
    p.set_defaults(func=_cmd_snf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        bounds = Bounds(getattr(args, "bounds_cosets", 100_000),
                        getattr(args, "bounds_rules", 500))
        report = args.func(args, bounds)
    except (ParamError, ScenarioError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(report.render(getattr(args, "format", "text")))
    return report.exit_code()


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
