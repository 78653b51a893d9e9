"""Property test: any argv or scenario JSON ends in an exit code, never a traceback.

Inputs are drawn from the CLI's own vocabulary (subcommands, builtin names,
parameter keys, braid words) mixed with wrong types, missing fields and
out-of-range values.  Every run uses small engine caps, so each example
takes milliseconds and capped engines are common.  The invariants:

* the exit code is one of 0, 1, 2, 3;
* nothing escapes `main` and stderr never holds a traceback; a usage error
  (exit 2) prints no report and one `error:` line (or argparse's usage);
* a `pass` line never quotes a capped enumeration ("hit its cap");
* an input error is never reported as an internal error, nor in Python's
  own words ("invalid literal for int()");
* a command is the builtin it names: its argv and the one-entry scenario
  that says the same in JSON give the same exit code, the same stdout and,
  on a refusal, the same message.
"""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpsurgery.cli import main
from dpsurgery.scenarios import ScenarioError, run_scenario_text

SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

JUNK = st.sampled_from([None, -1, 0, 7, 2.5, "x", "", "1_0", "\u0663", [], [1, 2], {}, {"a": 1},
                        True])
KNOTS = ["B2: 1 1 1", "B2: 1 1 1 1 1", "B3: 1 -2 1 -2", "B2: 1 1 1 1 1 1 1", "B1:"]
BRAIDS = st.sampled_from(3 * KNOTS + ["B2: 1 1", "B3: 1 2", "B2: 3", "B2: 1 x", "nonsense",
                                       ""])
SMALL = st.integers(min_value=-1, max_value=4)
BUILTINS = ["nodal", "rational", "spheres", "tori", "theorem-1-1", "theorem-7-2"]
# parameters each builtin takes, in small ranges, so most drawn runs compute
PARAMS = {
    "nodal": {"d1": st.integers(1, 2), "d2": st.integers(1, 4)},
    "rational": {"p": st.integers(1, 3), "q": st.integers(1, 4)},
    "spheres": {"m": st.integers(1, 4), "n": st.integers(1, 4)},
    "tori": {"m": st.integers(1, 4), "n": st.integers(1, 4)},
    "theorem-1-1": {"case": st.sampled_from(["i", "ii", "iii"]), "count": st.integers(1, 3)},
    "theorem-7-2": {"m": st.integers(1, 4), "n": st.integers(1, 3),
                    "count": st.integers(2, 3)},
}
OPTIONAL = {"k": SMALL, "knot": BRAIDS}  # surgery on nodal, rational, tori


def _rarely(draw) -> bool:
    return draw(st.integers(0, 4)) == 0


@st.composite
def builtin_params(draw, name: str) -> dict:
    """Valid parameters for `name`, now and then with one key dropped or spoiled."""
    params = {key: draw(value) for key, value in PARAMS[name].items()}
    if name in ("nodal", "rational", "tori"):
        for key, value in OPTIONAL.items():
            if draw(st.booleans()):
                params[key] = draw(value)
    if _rarely(draw):
        key = draw(st.sampled_from(sorted(params) + ["bogus"]))
        if key in params and draw(st.booleans()):
            del params[key]
        else:
            params[key] = draw(JUNK)
    return params


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_invariants(code: int, out: str, err: str):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert "internal error" not in err and "invalid literal" not in err, err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") or err.startswith("usage: ")
        if err.startswith("error: "):
            assert err.count("\n") == 1
        return
    for line in out.splitlines():
        name, verdict, evidence = line.split("\t")
        if verdict == "pass":
            assert "hit its cap" not in evidence, line


BOUNDS = st.tuples(st.sampled_from(["1", "30", "200", "30", "200", "0", "x", "1_0"]),
                   st.sampled_from(["1", "20", "100"]))


@st.composite
def argvs(draw):
    """(argv, scenario): a command line, and the one-entry scenario text that
    says the same in JSON, its bounds flags in `bounds`.

    The scenario is None for an unknown command or builtin, and when argv
    holds a token that JSON cannot: one without '=', a key given twice, or
    an argument too many for argparse."""
    command = draw(st.sampled_from(["verify", "surgery", "alexander", "distinguish",
                                    "actions", "snf", "bogus"]))
    builtin = {"actions": "theorem-7-2"}.get(command, command)
    positional, params = [], {}
    if command == "verify":
        builtin = draw(st.sampled_from(BUILTINS + ["nope"]))
        positional = [builtin]
        params = draw(builtin_params(builtin)) if builtin in PARAMS else {}
    elif command == "surgery":
        case = draw(st.sampled_from(["F1", "F2", "F3", "F9"]))
        params = {"case": case, "k": draw(SMALL), "knot": draw(BRAIDS),
                  "d": draw(st.integers(1, 4)), "p": draw(st.integers(1, 3)),
                  "q": draw(st.integers(1, 4)), "m": draw(st.integers(1, 4)),
                  "n": draw(st.integers(1, 3))}
        keep = {"F1": ("d",), "F2": ("p", "q"), "F3": ("m", "n"), "F9": ()}[case]
        params = {k: v for k, v in params.items() if k in keep + ("case", "k", "knot")}
        if _rarely(draw):
            params[draw(st.sampled_from(["d", "m", "k", "bogus"]))] = draw(JUNK)
    elif command == "alexander":
        if draw(st.booleans()):
            positional = draw(st.lists(BRAIDS, max_size=3))
        else:
            positional, params = ["family"], {"count": draw(st.sampled_from(["0", "2", "x"]))}
    elif command == "distinguish":
        positional = [draw(BRAIDS), draw(BRAIDS)]
        for key in ("m", "n"):
            if draw(st.booleans()):
                params[key] = draw(JUNK) if _rarely(draw) else draw(SMALL)
    elif command == "actions":
        params = draw(builtin_params("theorem-7-2"))
    elif command == "snf":
        positional = [draw(st.sampled_from(["2 0; 0 3", "1 2; 3", "", "a b", "4 6 ; 6 9"]))]
    else:
        params = {"x": 1}
    # argv gives every value as a string
    params = {key: str(value) for key, value in params.items()}
    tokens = [f"{key}={value}" for key, value in params.items()]
    known = command != "bogus" and builtin != "nope"
    braids = command == "alexander" and positional[:1] != ["family"]
    if _rarely(draw):
        # junk, or a key=value token given a second time; to alexander, a braid
        token = draw(st.sampled_from(["novalue", "=3", "k=", "bogus=1"] + tokens))
        key, sep, value = token.partition("=")
        if braids:
            positional.append(token)
        else:
            tokens.append(token)
            known = known and command != "snf" and sep and key and key not in params
            params[key] = value
    if braids:
        params = {"braids": positional}
    elif command == "distinguish":
        params["braids"] = positional
    elif command == "snf":
        params = {"matrix": positional[0]}
    cosets, rules = draw(BOUNDS)
    argv = (["--bounds-cosets", cosets, "--bounds-rules", rules, "--format", "machine",
             command] + positional + tokens)
    if not known:
        return argv, None
    return argv, json.dumps({"bounds": {"cosets": cosets, "rules": rules},
                             "checks": [{"builtin": builtin, "params": params}]})

def _sphere_configuration(simply_connected=True):
    """Two transverse spheres in S2xS2; H1 and pi1 of the complement are trivial."""
    return {
        "ambient": {"name": "S2xS2", "simply_connected": simply_connected,
                    "form": [[0, 1], [1, 0]], "basis": ["A", "B"]},
        "components": [{"label": "S1", "genus": 0, "class": [1, 0]},
                       {"label": "S2", "genus": 0, "class": [0, 1]}],
        "double_points": [[0, 1, 1]],
        "pi1": "gens: a b ; rels: a , b ; labels: mu1=a mu2=b ;",
    }


@st.composite
def configuration_entries(draw):
    config = _sphere_configuration(draw(JUNK) if _rarely(draw) else draw(st.booleans()))
    if _rarely(draw):
        key = draw(st.sampled_from(sorted(config)))
        if draw(st.booleans()):
            del config[key]
        else:
            config[key] = draw(JUNK)
    entry = {"configuration": config}
    if draw(st.booleans()):
        entry["verify"] = {"homology": "0", "group": "0"}
        if _rarely(draw):
            entry["verify"] = draw(st.one_of(JUNK, st.fixed_dictionaries(
                {}, optional={"homology": st.sampled_from(["Z", "Z_2", "x"]),
                              "group": st.sampled_from(["Z_2", "x"]), "bogus": JUNK})))
    if draw(st.booleans()):
        surgery = {"point": 0, "knot": draw(BRAIDS), "twist": draw(SMALL)}
        if draw(st.booleans()):
            surgery["case"] = {"tag": draw(st.sampled_from(["F1", "F2", "F3"])), "d": 2,
                               "p": 1, "q": 3, "m": 3, "n": 2, "k": draw(SMALL)}
        elif draw(st.booleans()):
            # F2 with q=1 at the block's twist matches the trivial H1, so the
            # surgery checks run
            surgery["case"] = {"tag": "F2", "p": draw(SMALL), "q": 1, "k": surgery["twist"]}
        if _rarely(draw):
            target = surgery.get("case", surgery) if draw(st.booleans()) else surgery
            target[draw(st.sampled_from(sorted(target) + ["tag", "bogus"]))] = \
                draw(st.one_of(SMALL, JUNK))
        entry["surgery"] = surgery
    return entry


@st.composite
def entries(draw):
    if _rarely(draw):
        return draw(JUNK)
    if draw(st.booleans()):
        return draw(configuration_entries())
    name = draw(st.sampled_from(BUILTINS))
    return {"builtin": name, "params": draw(builtin_params(name))}


@st.composite
def scenarios(draw):
    data = {"bounds": {"cosets": draw(st.sampled_from([1, 30, 200])),
                       "rules": draw(st.sampled_from([1, 20, 100]))},
            "checks": draw(st.lists(entries(), max_size=3))}
    if _rarely(draw):
        key = draw(st.sampled_from(["bounds", "checks", "extra"]))
        data[key] = draw(st.one_of(JUNK, st.fixed_dictionaries({"cosets": JUNK})))
    return data


@st.composite
def scenario_texts(draw):
    """A scenario as JSON text; now and then with its 'bounds' key given twice."""
    text = json.dumps(draw(scenarios()))
    if _rarely(draw):
        text = '{"bounds": {}, ' + text[1:]
    return text


@SETTINGS
@given(argvs().map(lambda drawn: drawn[0]))
@example(["--bounds-cosets", "100", "--format", "machine", "surgery", "case=F3", "m=3", "n=2",
          "k=1", "knot=B2: 1 1 1 1 1 1 1"])
@example(["--format", "machine", "surgery", "case=F1"])
@example(["--format", "machine", "surgery", "case=F1", "k=0", "knot=B1:", "d=None"])
@example(["--format", "machine", "distinguish", "B2: 1 1 1", "B1:", "m=2.5", "n=[]"])
def test_argv_never_escapes_the_exit_codes(argv):
    _check_invariants(*_run(argv))


# a refusal of argv and of JSON says the same after the scenario's prefix
_PREFIX = re.compile(r"^error: (checks\[0\]: params|scenario): ")


def _same(argv: list[str], builtin: str, params: dict) -> tuple[list[str], str]:
    """An example of `argvs()`: `argv` at cosets cap 200 and its scenario."""
    return (["--bounds-cosets", "200", "--bounds-rules", "100", "--format", "machine"] + argv,
            json.dumps({"bounds": {"cosets": 200, "rules": 100},
                        "checks": [{"builtin": builtin, "params": params}]}))


@SETTINGS
@given(argvs())
@example(_same(["surgery", "case=F1", "d=2", "k=0"], "surgery", {"case": "F1", "d": 2, "k": 0}))
@example(_same(["surgery", "case=f2", "p=1", "q=3", "k=1", "knot=B3: 1 -2 1 -2"], "surgery",
               {"case": "f2", "p": 1, "q": 3, "k": 1, "knot": "B3: 1 -2 1 -2"}))
@example(_same(["surgery", "case=F3", "m=3", "n=2", "k=3"], "surgery",
               {"case": "F3", "m": 3, "n": 2, "k": 3}))
@example(_same(["alexander", "B2: 1 1 1", "B1:"], "alexander", {"braids": ["B2: 1 1 1", "B1:"]}))
@example(_same(["alexander", "family"], "alexander", {}))
@example(_same(["distinguish", "B2: 1 1 1", "B1:", "n=1"], "distinguish",
               {"braids": ["B2: 1 1 1", "B1:"], "n": 1}))
@example(_same(["actions", "m=3", "n=2", "count=2"], "theorem-7-2",
               {"m": 3, "n": 2, "count": 2}))
@example(_same(["snf", "2 4; 6 8"], "snf", {"matrix": "2 4; 6 8"}))
@example(_same(["verify", "surgery", "case=F3", "m=3", "n=2", "k=1"], "surgery",
               {"case": "F3", "m": 3, "n": 2, "k": 1}))
def test_argv_runs_the_builtin_of_its_one_entry_scenario(drawn):
    argv, scenario = drawn
    code, out, err = _run(argv)
    _check_invariants(code, out, err)
    if scenario is None:
        return
    try:
        report = run_scenario_text(scenario)
    except ScenarioError as refused:
        assert code == 2, (argv, refused)
        if err.startswith("error: "):  # not argparse's usage
            assert err == _PREFIX.sub("error: ", f"error: {refused}\n"), argv
        return
    assert (code, out) == (report.exit_code(), report.render("machine")), argv


@SETTINGS
@given(scenario_texts())
@example(json.dumps({"checks": [{"builtin": "tori", "params": [1, 2]}]}))
@example(json.dumps({"bounds": {"cosets": None}, "checks": []}))
@example(json.dumps({"checks": [{"configuration": _sphere_configuration(False),
                                 "verify": {"homology": "0"}}]}))
@example(json.dumps({"checks": [{"configuration": _sphere_configuration(),
                                 "surgery": {"point": 0, "knot": "B2: 1 1 1", "twist": 2}}]}))
@example('{"bounds": {"cosets": 5, "cosets": 100000}, "checks": []}')
def test_scenario_json_never_escapes_the_exit_codes(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        _check_invariants(*_run(["--format", "machine", "verify", path]))
