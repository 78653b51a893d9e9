"""Command line interface: argv becomes one ``scenarios`` builtin and its params.

``verify <builtin> [key=value ...]`` runs any builtin that ``scenarios``
lists, or, when the argument names an existing file, a JSON scenario.  Every
other command names a builtin of its own (``actions`` runs ``theorem-7-2``),
its key=value tokens become params, and so do its positional arguments:
``alexander <braid> ...`` gives ``braids`` (``alexander family count=N``
gives ``count``), ``distinguish <braid> <braid>`` gives ``braids``, and
``snf "<row; row>"`` gives ``matrix``.  So every command can be written as a
scenario entry ``{"builtin": ..., "params": ...}``.

Common flags: ``--bounds-cosets N``, ``--bounds-rules N``,
``--format text|machine``.  Exit codes: 0 all checks pass, 1 a check
failed or an internal error (one ``internal error:`` line, nothing
certified), 2 usage or parse error, 3 inconclusive outcomes only.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import scenarios
from .reports import EXIT_FAIL, EXIT_USAGE
from .scenarios import ParamError, ScenarioError
from .verify import Bounds, DEFAULT_BOUNDS


def _parse_kv(tokens: list[str], **positional) -> dict:
    """Split key=value tokens after the `positional` params; `take_params`
    checks the values."""
    params = dict(positional)
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParamError(f"expected key=value, got {token!r}")
        if key in params:
            raise ParamError(f"duplicate parameter {key!r}")
        params[key] = value
    return params


# argv command -> the builtin it runs (`verify` names its own), its help, and
# its positional arguments, a trailing "*" marking a list
_COMMANDS = {
    "verify": (None, "run a builtin pipeline or a scenario file", ("target", "params*")),
    "surgery": ("surgery", "verify one twisted double point surgery", ("params*",)),
    "alexander": ("alexander", "Alexander polynomials of braid closures", ("braids*",)),
    "distinguish": ("distinguish", "smooth-inequivalence comparison",
                    ("braid1", "braid2", "params*")),
    "actions": ("theorem-7-2", "branched-cover action certificate", ("params*",)),
    "snf": ("snf", 'Smith normal form of an integer matrix (rows separated by ";", entries '
                   'by spaces)', ("matrix",)),
}


def _request(args) -> tuple[str, dict]:
    """The builtin that `args` names and its params."""
    builtin = _COMMANDS[args.command][0] or args.target
    if args.command == "alexander":
        if args.braids[:1] != ["family"]:
            return builtin, {"braids": args.braids}
        return builtin, _parse_kv(args.braids[1:])
    if args.command == "distinguish":
        return builtin, _parse_kv(args.params, braids=[args.braid1, args.braid2])
    if args.command == "snf":
        return builtin, {"matrix": args.matrix}
    return builtin, _parse_kv(args.params)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset flags from clobbering values parsed
    # before the subcommand; real defaults are applied in main()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bounds-cosets", type=scenarios.parse_int, default=argparse.SUPPRESS,
                        help=f"coset table cap (default {DEFAULT_BOUNDS.max_cosets})")
    common.add_argument("--bounds-rules", type=scenarios.parse_int, default=argparse.SUPPRESS,
                        help=f"rewrite rule cap (default {DEFAULT_BOUNDS.max_rules})")
    common.add_argument("--format", choices=("text", "machine"), default=argparse.SUPPRESS,
                        help="report format (default text)")

    parser = argparse.ArgumentParser(
        prog="dpsurgery",
        description="exact verification engine for twisted double point surgery",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for argument in arguments:
            p.add_argument(argument.rstrip("*"), nargs="*" if argument.endswith("*") else None)
    return parser


def _run(args):
    # the bounds flags given, keyed by their field of a scenario's `bounds`
    flags = {field: getattr(args, f"bounds_{field}") for field in ("cosets", "rules")
             if hasattr(args, f"bounds_{field}")}
    try:
        bounds = Bounds(**{f"max_{field}": value for field, value in flags.items()})
    except ValueError as err:
        raise ParamError(str(err)) from None
    name, params = _request(args)
    if name in scenarios.BUILTINS:
        return scenarios.run_builtin(name, params, bounds)
    if os.path.exists(name):
        if params:
            raise ParamError("scenario runs take no key=value parameters")
        # a bounds flag given overrides its own field of the file's bounds only
        return scenarios.run_scenario(name, flags)
    raise ParamError(f"{name!r} is neither a builtin ({', '.join(scenarios.BUILTINS)}) "
                     f"nor an existing scenario file")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        report = _run(args)
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
