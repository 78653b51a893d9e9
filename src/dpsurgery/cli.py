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

The surgery pipeline of nodal, rational and tori runs when ``k=`` or
``knot=`` is given; ``surgery case=`` runs the builtin that
``scenarios.SURGERY_CASES`` names for the case.  Argv values are checked by
the same ``take_params`` and ``parse_knot`` as scenario JSON, a case's
fields by the ``scenarios.case_specs`` that scenario ``case`` blocks use.

Common flags: ``--bounds-cosets N``, ``--bounds-rules N``,
``--format text|machine``.  Exit codes: 0 all checks pass, 1 a check
failed or an internal error (one ``internal error:`` line, nothing
certified), 2 usage or parse error, 3 inconclusive outcomes only.
"""

from __future__ import annotations

import argparse
import os
import sys

from .alexander import alexander_of_braid, coefficient_multiset, knot_family
from .knots import parse_int
from .reports import EXIT_FAIL, EXIT_USAGE, FAIL, PASS, CheckLine, Report
from .scenarios import (BUILTIN_NAMES, SURGERY_CASES, SURGERY_PARAMS, ParamError,
                        ScenarioError, case_specs, parse_knot, run_builtin, run_scenario,
                        take_params, tori_configuration)
from .snf import mat_mul, smith_normal_form
from .surgery import CASE_FIELDS
from .sw import distinguish
from .verify import Bounds, DEFAULT_BOUNDS


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    """Split key=value tokens; `take_params` checks the values."""
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParamError(f"expected key=value, got {token!r}")
        if key in params:
            raise ParamError(f"duplicate parameter {key!r}")
        params[key] = value
    return params


def _cmd_verify(args, bounds: Bounds) -> Report:
    name = args.target
    params = _parse_kv(args.params)
    if name in BUILTIN_NAMES:
        return run_builtin(name, params, bounds)
    if os.path.exists(name):
        if params:
            raise ParamError("scenario runs take no key=value parameters")
        # a bounds flag given overrides its own field of the file's bounds only
        return run_scenario(name, {field: getattr(args, f"bounds_{field}")
                                   for field in ("cosets", "rules")
                                   if hasattr(args, f"bounds_{field}")})
    raise ParamError(f"{name!r} is neither a builtin ({', '.join(BUILTIN_NAMES)}) "
                     f"nor an existing scenario file")


def _cmd_surgery(args, bounds: Bounds) -> Report:
    params = _parse_kv(args.params)
    tag = params.pop("case", "").upper()
    if tag not in SURGERY_CASES:
        cases = [f"{name} (with {' '.join(f'{field}=' for field in fields)})"
                 for name, fields in CASE_FIELDS.items()]
        raise ParamError(f"surgery needs case={', '.join(cases[:-1])} or {cases[-1]}")
    p = take_params(params, {**case_specs(tag), **SURGERY_PARAMS})
    builtin, names, fixed = SURGERY_CASES[tag]
    values = {name: p[field] for field, name in zip(CASE_FIELDS[tag], names)}
    return run_builtin(builtin, {**fixed, **values, "k": p["k"], "knot": p["knot"]}, bounds)


def _cmd_alexander(args, bounds: Bounds) -> Report:
    if not args.braids:
        raise ParamError("alexander needs at least one braid word or 'family count=N'")
    if args.braids[0] == "family":
        count = take_params(_parse_kv(args.braids[1:]),
                            {"count": (int, 10, lambda v: v >= 1, "count >= 1")})["count"]
        title = f"alexander family count={count}"
        knots = [(f"alexander K_{index} {braid.format()}", delta)
                 for index, (braid, _, delta) in enumerate(knot_family(count), start=1)]
    else:
        title = "alexander"
        knots = [(f"alexander {braid.format()}", alexander_of_braid(braid))
                 for braid in map(parse_knot, args.braids)]
    return Report(title, tuple(
        CheckLine(name, PASS, (f"polynomial {delta.format()}",
                               f"coefficient multiset {list(coefficient_multiset(delta))}"))
        for name, delta in knots))


def _cmd_distinguish(args, bounds: Bounds) -> Report:
    p = take_params(_parse_kv(args.params),
                    {"m": (int, 3, lambda v: v >= 1, "m >= 1"),
                     "n": (int, 2, lambda v: v >= 1, "n >= 1")})
    knot1, knot2 = parse_knot(args.braid1), parse_knot(args.braid2)
    line = distinguish(knot1, knot2, tori_configuration(p["m"], p["n"]))
    return Report(f"distinguish on tori m={p['m']} n={p['n']}", (line,))


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
            rows.append([parse_int(tok) for tok in chunk.split()])
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
    common.add_argument("--bounds-cosets", type=parse_int, default=argparse.SUPPRESS,
                        help=f"coset table cap (default {DEFAULT_BOUNDS.max_cosets})")
    common.add_argument("--bounds-rules", type=parse_int, default=argparse.SUPPRESS,
                        help=f"rewrite rule cap (default {DEFAULT_BOUNDS.max_rules})")
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


def _bounds(args) -> Bounds:
    try:
        return Bounds(getattr(args, "bounds_cosets", DEFAULT_BOUNDS.max_cosets),
                      getattr(args, "bounds_rules", DEFAULT_BOUNDS.max_rules))
    except ValueError as err:
        raise ParamError(str(err)) from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        report = args.func(args, _bounds(args))
    except (ParamError, ScenarioError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # the fault is the engine's, not the input's
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_FAIL
    sys.stdout.write(report.render(getattr(args, "format", "text")))
    return report.exit_code()


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
