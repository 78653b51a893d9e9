"""Builtins, scenario files and the command line surface."""

import itertools
import json
import os

import pytest

from dpsurgery import scenarios
from dpsurgery.cli import main
from dpsurgery.presentations import format_word
from dpsurgery.reports import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, FAIL
from dpsurgery.scenarios import (ParamError, ScenarioError, run_builtin,
                                 run_scenario, run_scenario_text)
from dpsurgery.surgery import CASE_FIELDS

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_nodal_builtin():
    report = run_builtin("nodal", {"d1": 2, "d2": 4})
    assert report.exit_code() == EXIT_OK
    homology = next(line for line in report.lines if line.name == "homology")
    assert "Z + Z_2" in homology.evidence[0]


def test_tori_trivial_builtin():
    report = run_builtin("tori", {"m": 1, "n": 1})
    assert report.exit_code() == EXIT_OK
    group = next(line for line in report.lines if line.name == "group")
    assert any("order 1" in fact for fact in group.evidence)


def test_theorem_1_1_small():
    report = run_builtin("theorem-1-1", {"case": "iii", "m": 3, "n": 2, "k": 1,
                                         "count": 3})
    assert report.exit_code() == EXIT_OK
    pair_lines = [line for line in report.lines if line.name.startswith("smoothly-distinct")]
    assert len(pair_lines) == 3
    tag_lines = [line for line in report.lines if "component-1-standard" in line.name]
    assert len(tag_lines) == 3 and all(line.verdict == "pass" for line in tag_lines)
    cited = [line for line in report.lines if line.verdict == "cited"]
    assert len(cited) == 1


def test_unknown_builtin_and_bad_params():
    with pytest.raises(ParamError):
        run_builtin("nope", {})
    with pytest.raises(ParamError):
        run_builtin("nodal", {"d1": 2})  # missing d2
    with pytest.raises(ParamError):
        run_builtin("nodal", {"d1": 2, "d2": 3, "bogus": 1})
    with pytest.raises(ParamError):
        run_builtin("theorem-1-1", {"case": "iv"})
    with pytest.raises(ParamError):
        run_builtin("theorem-1-1", {"case": "ii", "p": 1, "q": 4, "k": 1})
    with pytest.raises(ParamError):
        run_builtin("nodal", {"d1": 2, "d2": 3, "k": 1})  # F1 is nodal with d1=1


def test_scenario_reproduces_builtin_byte_for_byte():
    report = run_scenario(os.path.join(SCENARIO_DIR, "rational_p1_q3.json"))
    builtin = run_builtin("rational", {"p": 1, "q": 3, "k": 1})
    assert report.render_text() == builtin.render_text()
    assert report.render_machine() == builtin.render_machine()


def test_scenario_gcd_violation_fails():
    text = json.dumps({"checks": [
        {"builtin": "theorem-7-2", "params": {"m": 2, "n": 3, "k": 2, "count": 5}}]})
    report = run_scenario_text(text)
    assert report.exit_code() == EXIT_FAIL
    failed = [line.name for line in report.lines if line.verdict == "fail"]
    assert any("group-preservation-gcd" in name for name in failed)


def test_scenario_empty_checks():
    report = run_scenario_text(json.dumps({"checks": []}))
    assert report.exit_code() == EXIT_OK
    assert report.lines == ()
    assert report.render_machine() == ""


def test_scenario_with_custom_configuration():
    report = run_scenario(os.path.join(SCENARIO_DIR, "custom_spheres.json"))
    assert report.exit_code() == EXIT_OK
    names = [line.name for line in report.lines]
    assert any("homology" in name for name in names)
    assert any("group-preserved" in name for name in names)


def test_scenario_surgery_block_runs_the_surgery_checks():
    """An inline surgery block with a case prints the checks of `surgery case=`."""
    report = run_scenario(os.path.join(SCENARIO_DIR, "custom_spheres.json"))
    builtin = run_builtin("tori", {"m": 3, "n": 2, "k": 1})
    names = ("hypothesis", "group-preserved", "cross-validation", "embedding-tags")
    assert [(line.name, line.verdict, line.evidence) for line in report.lines[2:]] == \
        [(f"checks[0] {line.name}", line.verdict, line.evidence)
         for line in builtin.lines if line.name in names]
    assert len(report.lines) == 6


def test_scenario_case_describing_its_surgery_runs_its_hypothesis():
    """F3(3,2) at twist 3 describes the custom_spheres surgery, so it is not
    refused as input; its hypothesis fails: gcd(3, 3 * 2) = 3."""
    with open(os.path.join(SCENARIO_DIR, "custom_spheres.json"), encoding="utf-8") as f:
        scenario = json.load(f)
    scenario["checks"][0]["surgery"].update(twist=3, case={"tag": "F3", "m": 3, "n": 2, "k": 3})
    report = run_scenario_text(json.dumps(scenario))
    assert report.exit_code() == EXIT_FAIL
    assert [(line.name, line.verdict) for line in report.lines[2:]] == [
        ("checks[0] hypothesis", FAIL), ("checks[0] group-preserved", FAIL)]


def test_unknown_builtin_reads_the_scenario_entry_rule():
    """`run_builtin` and a scenario entry refuse an unknown builtin with one text."""
    with pytest.raises(ParamError) as direct:
        run_builtin("nope", {})
    with pytest.raises(ScenarioError) as entry:
        run_scenario_text(json.dumps({"checks": [{"builtin": "nope"}]}))
    assert str(direct.value).startswith("builtin='nope' out of range: one of nodal, ")
    assert str(entry.value) == f"scenario: checks[0]: {direct.value}"


def test_scenario_parse_errors():
    with pytest.raises(ScenarioError, match="line"):
        run_scenario_text("{not json")
    with pytest.raises(ScenarioError, match="^scenario: top level: unknown parameter 'extra'$"):
        run_scenario_text(json.dumps({"checks": [], "extra": 1}))
    with pytest.raises(ScenarioError, match="builtin"):
        run_scenario_text(json.dumps({"checks": [{"params": {}}]}))
    with pytest.raises(ScenarioError, match=r"^checks\[0\]: configuration: missing required "
                                            r"parameter 'ambient'; missing required parameter "
                                            r"'components'$"):
        run_scenario_text(json.dumps({"checks": [{"configuration": {}}]}))
    with pytest.raises(ScenarioError):
        run_scenario("/nonexistent/path.json")


def _sphere_configuration_entry():
    return {
        "ambient": {"name": "S2xS2", "simply_connected": True,
                    "form": [[0, 1], [1, 0]], "basis": ["A", "B"]},
        "components": [{"label": "S1", "genus": 0, "class": [1, 0]},
                       {"label": "S2", "genus": 0, "class": [0, 1]}],
        "double_points": [[0, 1, 1]],
    }


def test_scenario_inconsistent_double_points_rejected():
    entry = _sphere_configuration_entry()
    entry["double_points"] = []  # classes pair to 1, so a point is required
    with pytest.raises(ScenarioError, match="pair"):
        run_scenario_text(json.dumps({"checks": [{"configuration": entry}]}))


def test_scenario_surgery_case_needs_fields():
    entry = _sphere_configuration_entry()
    text = json.dumps({"checks": [{
        "configuration": entry,
        "surgery": {"point": 0, "knot": "B2: 1 1 1", "twist": 1,
                    "case": {"tag": "F3", "m": 3}}}]})
    with pytest.raises(ScenarioError,
                       match=r"^checks\[0\]: case: missing required parameter 'n'$"):
        run_scenario_text(text)
    # without a tag the refusal names the tags and their fields
    text = json.dumps({"checks": [{
        "configuration": entry,
        "surgery": {"point": 0, "knot": "B2: 1 1 1", "twist": 1, "case": {"m": 3}}}]})
    with pytest.raises(ScenarioError) as refusal:
        run_scenario_text(text)
    assert str(refusal.value) == ("checks[0]: case: missing required parameter 'tag': one of "
                                  "F1 (with d=), F2 (with p= q=), F3 (with m= n=)")


def test_module_entry_point():
    import subprocess
    import sys

    # the child finds the package in src/ even when it is not installed
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dpsurgery", "snf", "2 0; 0 3"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "diagonal [1, 6]" in proc.stdout


def test_cli_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code = main(["--format", "machine", "verify", "theorem-7-2",
                     "m=3", "n=2", "k=1", "count=3"])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_scenario_determinism():
    path = os.path.join(SCENARIO_DIR, "actions_family.json")
    assert run_scenario(path).render_text() == run_scenario(path).render_text()


# -- CLI ------------------------------------------------------------------------

def test_cli_verify_builtin(capsys):
    code = main(["verify", "rational", "p=1", "q=3", "k=1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "== rational p=1 q=3 k=1 ==" in out
    assert "group-preserved: pass" in out


def test_cli_machine_format(capsys):
    code = main(["--format", "machine", "verify", "nodal", "d1=2", "d2=4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for line in out.strip().splitlines():
        name, verdict, evidence = line.split("\t")
        assert verdict in ("pass", "fail", "inconclusive", "cited")


def test_cli_verify_scenario_file(capsys):
    path = os.path.join(SCENARIO_DIR, "rational_p1_q3.json")
    code = main(["verify", path])
    assert code == EXIT_OK


def test_cli_usage_errors(capsys):
    """A bad argv exits 2 with one line that names the fault, and no report."""
    builtins = ("nodal, rational, spheres, tori, theorem-1-1, theorem-7-2, surgery, alexander, "
                "distinguish, snf")
    cases = [
        (["verify", "not-a-builtin-or-file"],
         f"error: 'not-a-builtin-or-file' is neither a builtin ({builtins}) "
         "nor an existing scenario file\n"),
        (["verify", "nodal", "d1=2"], "error: missing required parameter 'd2'\n"),
        (["surgery", "case=F9"], "error: case='F9' out of range: one of F1 (with d=), "
                                 "F2 (with p= q=), F3 (with m= n=)\n"),
        (["surgery"], "error: missing required parameter 'case': one of F1 (with d=), "
                      "F2 (with p= q=), F3 (with m= n=)\n"),
        (["surgery", "m=3", "n=2"], "error: missing required parameter 'case': one of "
                                    "F1 (with d=), F2 (with p= q=), F3 (with m= n=)\n"),
        (["alexander", "B2: 1 1"],  # link, not knot
         "error: braid B2: 1 1 does not close to a knot\n"),
        (["snf", "1 2; 3"], "error: ragged matrix rows\n"),
        # argv values go through the scenario parameter checks, never bare int()
        (["surgery", "case=F3", "m=x", "n=2", "k=1"], "error: m must be an integer\n"),
        (["distinguish", "B2: 1 1 1", "B3: 1 -2 1 -2", "m=abc"],
         "error: m must be an integer\n"),
        (["alexander", "family", "count=x"], "error: count must be an integer\n"),
        (["alexander", "B2: 1 x"], "error: bad braid letter 'x' in 'B2: 1 x'\n"),
        (["surgery", "case=F1", "d=None"], "error: d must be an integer\n"),
        # k= or knot= selects the surgery pipeline; there is no surgery= switch
        (["verify", "tori", "m=3", "n=2", "k=1", "surgery=0"],
         "error: unknown parameter 'surgery'\n"),
        (["verify", "spheres", "m=2", "n=2", "knot=B2: 1 1 1"],
         "error: unknown parameter 'knot'\n"),
        # a theorem-1-1 case reads only its own parameters
        (["verify", "theorem-1-1", "case=i", "p=99"], "error: unknown parameter 'p'\n"),
        (["verify", "theorem-1-1", "case=ii", "p=1", "q=4", "k=1"],
         "error: hypothesis of F2(p=1, q=4, k=1) fails; no claim is made\n"),
        # a family needs at least two double points, in every case
        (["verify", "theorem-1-1", "case=i", "d2=1"],
         "error: F1(d=1, k=0) gives 1 double point; a family needs at least two\n"),
        (["verify", "theorem-1-1", "case=ii", "q=1"],
         "error: F2(p=1, q=1, k=1) gives 1 double point; a family needs at least two\n"),
        (["verify", "theorem-1-1", "case=iii", "m=1", "n=1", "count=2"],
         "error: F3(m=1, n=1, k=1) gives 1 double point; a family needs at least two\n"),
        (["verify", "theorem-1-1", "case=i", "d2=0"],
         "error: d2=0 out of range: degree >= 1\n"),
        # an integer is an optional '-' and ASCII digits: no '_', no other digits
        (["verify", "tori", "m=1_0", "n=2"], "error: m must be an integer\n"),
        (["verify", "tori", "m=\u0663", "n=2"], "error: m must be an integer\n"),
        (["alexander", "B\u0662: 1 1 1"], "error: bad strand count in 'B\u0662: 1 1 1'\n"),
        (["alexander", "B2: 1 1_0 1"], "error: bad braid letter '1_0' in 'B2: 1 1_0 1'\n"),
        (["snf", "1_0 2"], "error: bad matrix row '1_0 2'\n"),
        # a key given twice is refused, not overwritten
        (["verify", "tori", "m=3", "m=5", "n=2"], "error: duplicate parameter 'm'\n"),
        (["alexander", "family", "count=2", "count=3"],
         "error: duplicate parameter 'count'\n"),
    ]
    for argv, message in cases:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message, argv
    # the bounds flags take the same integers (argparse prints its usage)
    assert main(["--bounds-cosets", "1_0", "verify", "tori", "m=1", "n=1"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_cli_surgery(capsys):
    code = main(["surgery", "case=F2", "p=1", "q=3", "k=1", "knot=B2: 1 1 1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "cross-validation: pass" in out


@pytest.mark.parametrize("argv, name, params, title", [
    (["case=F1", "d=2"], "nodal", {"d1": 1, "d2": 2, "k": 0},
     "nodal d1=1 d2=2 k=0 knot=B2: 1 1 1"),
    (["case=F2", "p=1", "q=3", "k=1"], "rational", {"p": 1, "q": 3, "k": 1},
     "rational p=1 q=3 k=1 knot=B2: 1 1 1"),
    (["case=f3", "m=3", "n=2", "k=1", "knot=B3: 1 -2 1 -2"], "tori",
     {"m": 3, "n": 2, "k": 1, "knot": "B3: 1 -2 1 -2"}, "tori m=3 n=2 k=1 knot=B3: 1 -2 1 -2"),
])
def test_cli_surgery_runs_the_case_builtin(capsys, argv, name, params, title):
    """F1/F2/F3 run nodal (d1=1)/rational/tori; the knot defaults to the trefoil."""
    code = main(["--format", "machine", "surgery"] + argv)
    out = capsys.readouterr().out
    report = run_builtin(name, {"knot": "B2: 1 1 1", **params})
    assert report.title == title
    assert code == report.exit_code()
    assert out == report.render_machine()


def _cp2_case_scenario(case: dict) -> dict:
    """Lines of class 1 and -1 in CP2, meeting once with sign -1, surgered
    untwisted with `case`; its complement H1 is Z, the F1 target."""
    return {"checks": [{
        "configuration": {"ambient": {"name": "CP2", "form": [[1]]},
                          "components": [{"class": [1]}, {"class": [-1]}],
                          "double_points": [[0, 1, -1]]},
        "surgery": {"point": 0, "knot": "B2: 1 1 1", "twist": 0, "case": case}}]}


@pytest.mark.parametrize("tag", sorted(CASE_FIELDS))
def test_argv_and_case_blocks_read_case_fields_alike(tmp_path, capsys, monkeypatch, tag):
    """`surgery case=TAG` and a scenario case block build the same case from
    the same fields and refuse the same fields with the same line.

    The inline F1 d=-1 block used to run its surgery and pass, while
    `surgery case=F1 d=-1` was refused."""
    fields = dict(zip(CASE_FIELDS[tag], (3, 2)))

    def argv(values):
        return ["surgery", f"case={tag}", *(f"{key}={value}" for key, value in values.items())]

    built = []
    monkeypatch.setattr(scenarios, "_surgery_lines",
                        lambda spec, case, bounds: built.append(case) or [])
    assert main(argv({**fields, "k": 2})) == EXIT_OK
    assert built == [scenarios._case_from_json({"tag": tag, **fields, "k": 2}, "checks[0]")]
    capsys.readouterr()

    last = CASE_FIELDS[tag][-1]
    missing = {key: value for key, value in fields.items() if key != last}
    path = tmp_path / "scenario.json"
    for values in ({**fields, last: 0}, {**fields, last: -1}, {**fields, last: "x"},
                   missing, {**fields, "z": 1}):
        assert main(argv(values)) == EXIT_USAGE, values
        refused = capsys.readouterr()
        assert refused.out == "" and refused.err.count("\n") == 1
        path.write_text(json.dumps(_cp2_case_scenario({"tag": tag, **values, "k": 0})))
        assert main(["verify", str(path)]) == EXIT_USAGE, values
        assert capsys.readouterr().err == \
            refused.err.replace("error: ", "error: checks[0]: case: ", 1)

    assert main(["surgery", "case=F9"]) == EXIT_USAGE
    assert f"{tag} (with {' '.join(f'{key}=' for key in CASE_FIELDS[tag])})" \
        in capsys.readouterr().err


def test_surgery_checks_its_params_once(monkeypatch, capsys):
    """`surgery case=` checks case, fields, k and knot by one `take_params`
    call and builds its case once, as a scenario `case` block does."""
    calls, cases = [], []
    take_params, case_params = scenarios.take_params, scenarios.CaseParams
    monkeypatch.setattr(scenarios, "take_params",
                        lambda params, spec: calls.append(sorted(spec)) or take_params(params, spec))
    monkeypatch.setattr(scenarios, "CaseParams",
                        lambda *args, **kwargs: cases.append(args) or case_params(*args, **kwargs))
    assert main(["surgery", "case=F3", "m=3", "n=2", "k=1"]) == EXIT_OK
    assert calls == [["case", "k", "knot", "m", "n"]]
    assert cases == [("F3", 1)]
    capsys.readouterr()


def test_commands_scenario_prints_the_lines_of_its_commands(capsys):
    """scenarios/commands.json writes surgery, alexander, distinguish and snf
    as entries; each entry prints the lines of its command line."""
    expected = []
    for argv in (["surgery", "case=F3", "m=3", "n=2", "k=1", "knot=B2: 1 1 1"],
                 ["alexander", "B2: 1 1 1", "B3: 1 -2 1 -2"],
                 ["distinguish", "B2: 1 1 1", "B1:", "m=3", "n=2"],
                 ["snf", "2 4; 6 8"]):
        assert main(["--format", "text", *argv]) == EXIT_OK
        title = capsys.readouterr().out.splitlines()[0][len("== "):-len(" ==")]
        assert main(["--format", "machine", *argv]) == EXIT_OK
        expected += [f"{title} :: {line}" for line in capsys.readouterr().out.splitlines()]
    path = os.path.join(SCENARIO_DIR, "commands.json")
    assert main(["--format", "machine", "verify", path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == expected


def test_builtin_params_checked_before_computation(monkeypatch):
    def computed(config):
        raise AssertionError("computed before every parameter was checked")

    monkeypatch.setattr(scenarios, "complement_h1", computed)
    with pytest.raises(ParamError, match="does not close to a knot"):
        run_builtin("tori", {"m": 16, "n": 17, "knot": "B2: 1 1"})
    with pytest.raises(ParamError, match=r"^case F1\(d=3, k=1\) does not match the meridian "
                                         r"relations at double point 0$"):
        run_builtin("nodal", {"d1": 2, "d2": 3, "k": 1})


def test_admission_refuses_the_builtin_surgeries_the_fixed_d1_refused(monkeypatch, capsys):
    """`verify nodal|rational|tori ... k=` runs its surgery exactly when the
    case describes double point 0: nodal only with d1=1, as when F1 fixed
    d1=1, rational and tori always."""
    monkeypatch.setattr(scenarios, "_surgery_lines", lambda spec, case, bounds: [])
    for d1, d2, k in itertools.product(range(1, 5), range(1, 5), (0, 1)):
        code = main(["verify", "nodal", f"d1={d1}", f"d2={d2}", f"k={k}"])
        assert (code == EXIT_USAGE) == (d1 != 1), (d1, d2, k)
    for (name, keys), a, b in itertools.product((("rational", "pq"), ("tori", "mn")),
                                                range(1, 4), range(1, 5)):
        assert main(["verify", name, f"{keys[0]}={a}", f"{keys[1]}={b}", "k=1"]) == EXIT_OK
    capsys.readouterr()


def _broken(*args, **kwargs):
    raise ValueError("engine fault")


def test_cli_internal_error_is_not_a_usage_error(monkeypatch, capsys):
    """An engine fault exits 1 with one line; it is not blamed on the input."""
    monkeypatch.setattr(scenarios, "verify_abelian_isomorphism", _broken)
    assert main(["verify", "tori", "m=1", "n=1"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: engine fault\n"


def test_cli_scenario_surgery_engine_error_is_internal(monkeypatch, capsys):
    """A scenario surgery block's engine fault is not relabelled as exit 2."""
    monkeypatch.setattr(scenarios, "surgered_components", _broken)
    assert main(["verify", os.path.join(SCENARIO_DIR, "custom_spheres.json")]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: engine fault\n"


def test_cli_alexander(capsys):
    code = main(["alexander", "B2: 1 1 1", "B3: 1 -2 1 -2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "t^-1 - 1 + t" in out
    assert "-t^-1 + 3 - t" in out
    code = main(["alexander", "family", "count=3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "K_3" in out


def test_cli_distinguish(capsys):
    assert main(["distinguish", "B2: 1 1 1", "B1:"]) == EXIT_OK
    capsys.readouterr()
    assert main(["distinguish", "B2: 1 1 1", "B2: 1 1 1"]) == EXIT_FAIL


def test_cli_actions(capsys):
    assert main(["actions", "m=3", "n=2", "k=1", "count=5"]) == EXIT_OK
    capsys.readouterr()
    assert main(["actions", "m=3", "n=2", "k=3", "count=5"]) == EXIT_FAIL


_PLAN = ("cover-plan\tpass\tbranched cover plan for Z_3 + Z_2:;   stage one: Z_2 cover "
         "branched over component 2, meridian mu2 -> 1;   stage two: Z_3 cover branched over "
         "the preimage of component 1;   meridian orders: mu1 -> 3, mu2 -> 2\n")
_CITED = ("topological-equivalence\tcited\tbranch sets are topologically isotopic "
          "(surgery-theoretic result, recorded on citation; not recomputed here)\n")
_K1 = ("group-preservation-gcd\tpass\tgcd(m, k*n) = gcd(3, 1*2) = 1\n"
       "plotnick-gcd\tpass\tgcd(k, m) = gcd(1, 3) = 1\n")
_K3 = _PLAN + (
    "group-preservation-gcd\tfail\tgcd(m, k*n) = gcd(3, 3*2) = 3 != 1: the group claim "
    "is unavailable\n"
    "plotnick-gcd\tfail\tgcd(k, m) = gcd(3, 3) = 3 != 1: the cover need not untwist\n"
    "group-preserved-per-knot\tfail\tskipped: group-preservation gcd failed\n"
    "sw-pairwise-distinct\tfail\tskipped: group-preservation gcd failed\n") + _CITED + (
    "conclusion\tfail\tcertificate FAILED at: group-preservation-gcd, plotnick-gcd, "
    "group-preserved-per-knot, sw-pairwise-distinct\n")


_K1_CERTIFIED = _PLAN + _K1 + (
    "group-preserved-per-knot\tpass\t3/3 knots verified isomorphic to Z_3 + Z_2\n"
    "sw-pairwise-distinct\tpass\t3/3 pairs distinguished\n") + _CITED + (
    "conclusion\tpass\tdesk-scale certificate: 3 smoothly inequivalent, topologically "
    "equivalent Z_3 + Z_2 actions of standard type\n")


@pytest.mark.parametrize("flags, k, code, stdout, m, n", [
    ([], 1, EXIT_OK, _K1_CERTIFIED, 3, 2),
    ([], 3, EXIT_FAIL, _K3, 3, 2),
    # at cap 40 the third knot's enumeration caps and its commutator
    # subgroup decides it, so the report is the one at the default cap
    (["--bounds-cosets", "40"], 1, EXIT_OK, _K1_CERTIFIED, 3, 2),
    (["--bounds-cosets", "5"], 1, EXIT_INCONCLUSIVE, (
        "cover-plan\tinconclusive\tcomplement group did not verify as Z_6: Inconclusive; "
        "abelianization matches target Z_6; coset enumeration inconclusive: table cap 5 "
        "exhausted (5 cosets allocated); bounds exhausted without a decision\n"), 3, 2),
    # a refused plan is the whole report
    ([], 1, EXIT_FAIL, "cover-plan\tfail\tgcd(m, n) = gcd(2, 4) = 2 != 1\n", 2, 4),
])
def test_cli_actions_machine_output_pinned(capsys, flags, k, code, stdout, m, n):
    assert main(["--format", "machine", *flags, "actions", f"m={m}", f"n={n}", f"k={k}",
                 "count=3"]) == code
    assert capsys.readouterr().out == stdout


_APPLICABLE = ("applicability\tpass\tnonzero-intersection: pass (component classes pair to "
               "{0}); at-least-two-points: pass ({0} double points); nonvanishing-invariant: "
               "pass (symplectic with positive intersections: canonical nonvanishing "
               "invariant)\n")
_MEMBER = ("group-preserved r={0} {1}\tpass\t{2}\n"
           "component-1-standard r={0} {1}\tpass\tcomponent 1 embedding tag: Standard\n")
_FAMILY_END = ("smoothly-distinct B2: 1 1 1 vs B2: 1 1 1 1 1\tpass\tverdict "
               "SmoothlyInequivalent; coefficient multisets differ: [-1, 1, 1] vs "
               "[-1, -1, 1, 1, 1]\n"
               "topological-equivalence\tcited\tall family members are topologically "
               "equivalent to the unsurgered configuration (surgery-theoretic result, cited)\n")


def _f1_preserved(allocated):
    return ("F1(d=2, k=0): hypothesis holds; abelianization matches target Z; s maps to a "
            "generator of the abelianization Z; the subgroup it generates has index 1 "
            f"({allocated} cosets allocated, cap 100000); group is cyclic, hence isomorphic to Z")


def _finite_preserved(case, order, allocated):
    return (f"{case}: hypothesis holds; abelianization matches target Z_{order}; coset "
            f"enumeration completed: index {order} ({allocated} cosets allocated, cap "
            f"100000); group order {order} equals abelianization order: group is abelian, "
            f"hence isomorphic to Z_{order}")


@pytest.mark.parametrize("case, points, first, second", [
    ("i", 2, _f1_preserved(2), _f1_preserved(3)),
    ("ii", 3, _finite_preserved("F2(p=1, q=3, k=1)", 3, 10),
     _finite_preserved("F2(p=1, q=3, k=1)", 3, 12)),
    ("iii", 6, _finite_preserved("F3(m=3, n=2, k=1)", 6, 33),
     _finite_preserved("F3(m=3, n=2, k=1)", 6, 40)),
])
def test_cli_theorem_1_1_machine_output_pinned(capsys, case, points, first, second):
    """theorem-1-1 at its default parameters: the trefoil and T(2,5) members."""
    assert main(["--format", "machine", "verify", "theorem-1-1", f"case={case}",
                 "count=2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        _APPLICABLE.format(points) + _MEMBER.format(1, "B2: 1 1 1", first)
        + _MEMBER.format(2, "B2: 1 1 1 1 1", second) + _FAMILY_END)


PINNED_DIR = os.path.join(os.path.dirname(__file__), "pinned")
_F3_SURGERY = ["surgery", "case=F3", "m=2", "n=3", "k=3",
               "knot=B3: 2 -1 2 -1 2 -1 -1 2 -1 -1 2 2"]
# group-preserved caps at 500 and its commutator subgroup, on 19 Schreier
# generators over the 6 elements of Z_6, is trivial by Tietze
_CAPPED_F3 = ["--bounds-cosets", "500", "--bounds-rules", "200", *_F3_SURGERY]
# below 6 * 4 + 1 = 25 the route does not run: 6 cosets and 19 Schreier
# generators of the 4-generator case presentation exceed the cap
_CAPPED_F3_BELOW_ROUTE = ["--bounds-cosets", "20", "--bounds-rules", "200", *_F3_SURGERY]


@pytest.mark.parametrize("argv, code, pinned", [
    (["--format", "machine", "verify", "theorem-1-1", "case=i", "count=10"], EXIT_OK,
     "theorem-1-1-case-i-count-10.machine"),
    # members up to T(2,21), each certified on its Tietze-reduced knot group
    (["--format", "machine", "verify", "theorem-1-1", "case=iii", "count=10"], EXIT_OK,
     "theorem-1-1-case-iii-count-10.machine"),
    (_CAPPED_F3_BELOW_ROUTE, EXIT_INCONCLUSIVE, "surgery-F3-capped.text"),
    (["--format", "machine", "verify", "theorem-1-1", "case=ii", "count=4"], EXIT_OK,
     "theorem-1-1-case-ii-count-4.machine"),
    # the distinguish verdict comes last; theorem-1-1 pair lines put it first
    (["--format", "machine", "distinguish", "B2: 1 1 1", "B1:"], EXIT_OK,
     "distinguish-trefoil-unknot.machine"),
    (["--format", "machine", "distinguish", "B2: 1 1 1", "B2: 1 1 1"], EXIT_FAIL,
     "distinguish-trefoil-trefoil.machine"),
    # one double point: the applicability hypotheses fail, nothing is concluded
    (["--format", "machine", "distinguish", "B2: 1 1 1", "B1:", "m=1", "n=1"], EXIT_FAIL,
     "distinguish-trefoil-unknot-m1-n1.machine"),
    (_CAPPED_F3, EXIT_OK, "surgery-F3-capped-route.text"),
    # recorded before these commands became scenario builtins
    (["alexander", "B2: 1 1 1", "B3: 1 -2 1 -2"], EXIT_OK,
     "alexander-trefoil-figure-eight.text"),
    (["--format", "machine", "alexander", "family", "count=5"], EXIT_OK,
     "alexander-family-count-5.machine"),
    (["snf", "2 4; 6 8"], EXIT_OK, "snf-2-4-6-8.text"),
    (["--format", "machine", "snf", "2 4; 6 8"], EXIT_OK, "snf-2-4-6-8.machine"),
    (["actions", "m=3", "n=2", "k=1", "count=3"], EXIT_OK, "actions-m3-n2-k1-count3.text"),
    (["verify", "nodal", "d1=2", "d2=4"], EXIT_OK, "verify-nodal-d1-2-d2-4.text"),
])
def test_cli_output_pinned_to_file(capsys, argv, code, pinned):
    """Whole reports recorded from the command line, byte for byte."""
    assert main(argv) == code
    with open(os.path.join(PINNED_DIR, pinned), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def _configuration_lines(h1, group_evidence, prefix=""):
    return (f"{prefix}homology\tpass\tcomplement H1 = {h1}, expected {h1}\n"
            f"{prefix}group\tpass\tabelianization matches target {h1}; {group_evidence}\n")


def _enumerated_abelian(order, allocated):
    return (f"coset enumeration completed: index {order} ({allocated} cosets allocated, "
            f"cap 100000); group order {order} equals abelianization order: group is "
            f"abelian, hence isomorphic to Z_{order}")


@pytest.mark.parametrize("argv, stdout", [
    (["spheres", "m=6", "n=7"], _configuration_lines("Z_42", _enumerated_abelian(42, 42))),
    (["tori", "m=6", "n=7"], _configuration_lines("Z_42", _enumerated_abelian(42, 79))),
    # Z + Z_2: mu2 maps onto the free summand, and <mu2> has index |Z_2|
    (["nodal", "d1=2", "d2=4"], _configuration_lines(
        "Z + Z_2", "mu2 maps to a generator of Z + Z_2 modulo its torsion; the subgroup it "
        "generates has index 2 (2 cosets allocated, cap 100000); index 2 = |Z_2|: group is "
        "abelian, hence isomorphic to Z + Z_2")),
    (["rational", "p=2", "q=5"], _configuration_lines("Z_5", _enumerated_abelian(5, 5))),
    ([os.path.join(SCENARIO_DIR, "custom_spheres.json")], (
        "checks[0] homology\tpass\tcomplement H1 = Z_6, expected Z_6\n"
        "checks[0] group\tpass\tabelianization matches target Z_6; "
        + _enumerated_abelian(6, 6) + "\n"
        "checks[0] hypothesis\tpass\tF3(m=3, n=2, k=1): arithmetic condition holds\n"
        "checks[0] group-preserved\tpass\t" + _finite_preserved("F3(m=3, n=2, k=1)", 6, 33)
        + "\n"
        "checks[0] cross-validation\tpass\tamalgam abelianization Z_6, collapsed "
        "abelianization Z_6; enumerated orders 6 and 6\n"
        "checks[0] embedding-tags\tpass\tcomponent 1: Standard; component 2: Standard\n")),
])
def test_cli_configuration_machine_output_pinned(capsys, argv, stdout):
    """Configuration builtins and a scenario file: the `N cosets allocated` evidence."""
    assert main(["--format", "machine", "verify", *argv]) == EXIT_OK
    assert capsys.readouterr().out == stdout


def _inline(config):
    """A scenario `configuration` block for `config`, its pi1 written through
    `format_word`."""
    pi1, names = config.pi1, config.pi1.generators
    labels = " ".join(f"{role}={format_word(word, names).replace(' ', '.')}"
                      for role, word in pi1.labels)
    return {"ambient": {"name": config.ambient.name,
                        "simply_connected": config.ambient.simply_connected,
                        "form": [list(row) for row in config.ambient.form],
                        "basis": list(config.ambient.basis_labels)},
            "components": [{"label": c.label, "genus": c.genus, "class": list(c.homology_class)}
                           for c in config.components],
            "double_points": [list(point) for point in config.double_points],
            "pi1": (f"gens: {' '.join(names)} ; rels: "
                    + " , ".join(format_word(r, names) for r in pi1.relators)
                    + f" ; labels: {labels} ;"),
            "symplectic_positive": config.symplectic_positive}


@pytest.mark.parametrize("builtin, params, config, expected, case", [
    ("nodal", {"d1": 1, "d2": 3}, ("nodal", 1, 3), "Z", None),
    ("rational", {"p": 1, "q": 3}, ("rational", 1, 3), "Z_3", None),
    ("spheres", {"m": 2, "n": 3}, ("spheres", 2, 3), "Z_6", None),
    ("tori", {"m": 3, "n": 2}, ("tori", 3, 2), "Z_6", None),
    # `surgery case=` at the theorem-1-1 defaults, with the default knot
    ("surgery", {"case": "F1", "d": 2, "k": 0}, ("nodal", 1, 2), "Z",
     {"tag": "F1", "d": 2, "k": 0}),
    ("surgery", {"case": "F2", "p": 1, "q": 3, "k": 1}, ("rational", 1, 3), "Z_3",
     {"tag": "F2", "p": 1, "q": 3, "k": 1}),
    ("surgery", {"case": "F3", "m": 3, "n": 2, "k": 1}, ("tori", 3, 2), "Z_6",
     {"tag": "F3", "m": 3, "n": 2, "k": 1}),
], ids=["nodal", "rational", "spheres", "tori", "surgery-F1", "surgery-F2", "surgery-F3"])
def test_builtin_and_inline_configurations_print_the_same_checks(builtin, params, config,
                                                                  expected, case):
    """A configuration builtin prints the checks of one scenario entry that
    gives the same configuration inline, with the same expectations and
    surgery block."""
    name, a, b = config
    entry = {"configuration": _inline(getattr(scenarios, f"{name}_configuration")(a, b)),
             "verify": {"homology": expected, "group": expected}}
    if case is not None:
        entry["surgery"] = {"point": 0, "knot": "B2: 1 1 1", "twist": case["k"], "case": case}
    report = run_builtin(builtin, params)
    inline = run_scenario_text(json.dumps({"checks": [entry]}))
    assert inline.exit_code() == report.exit_code()
    assert [(line.name.removeprefix("checks[0] "), line.verdict, line.evidence)
            for line in inline.lines] == \
        [(line.name, line.verdict, line.evidence) for line in report.lines]


def test_configuration_builtins_are_looked_up_when_they_run(monkeypatch):
    """A rebinding of `scenarios.tori_configuration`, as the tracer makes,
    is what `surgery case=F3` runs."""
    calls, tori = [], scenarios.tori_configuration
    monkeypatch.setattr(scenarios, "tori_configuration",
                        lambda *args, **kwargs: calls.append(kwargs) or tori(*args, **kwargs))
    assert run_builtin("surgery", {"case": "F3", "m": 3, "n": 2, "k": 1}).exit_code() == EXIT_OK
    assert calls == [{"m": 3, "n": 2}]


def test_cli_snf(capsys):
    code = main(["snf", "2 0; 0 3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "diagonal [1, 6]" in out


@pytest.mark.parametrize("matrix, d, u, v, diagonal", [
    ("0", "[0]", "[1]", "[1]", "[0]"),
    ("-3", "[3]", "[-1]", "[1]", "[3]"),
    ("1 2 3", "[1 0 0]", "[1]", "[1 -2 -3; 0 1 0; 0 0 1]", "[1]"),
    ("1;2;3", "[1; 0; 0]", "[1 0 0; -2 1 0; -3 0 1]", "[1]", "[1]"),
    ("2 1; 1 2", "[1 0; 0 3]", "[1 0; 2 -1]", "[0 1; 1 -2]", "[1, 3]"),
    ("1 2; 3 4; 5 6", "[1 0; 0 2; 0 0]", "[1 0 0; 3 -1 0; 1 -2 1]", "[1 -2; 0 1]", "[1, 2]"),
    ("6 4; 4 6; 2 2", "[2 0; 0 2; 0 0]", "[0 0 1; 0 1 -2; 1 1 -5]", "[1 -1; 0 1]", "[2, 2]"),
])
def test_cli_snf_output_pinned(capsys, matrix, d, u, v, diagonal):
    """The snf command's transforms, pinned: U and V are part of its output."""
    facts = [f"D = {d}", f"U = {u}", f"V = {v}", f"diagonal {diagonal}", "U*M*V == D: True"]
    assert main(["--format", "machine", "snf", matrix]) == EXIT_OK
    assert capsys.readouterr().out == "snf\tpass\t" + "; ".join(facts) + "\n"
    assert main(["--format", "text", "snf", matrix]) == EXIT_OK
    assert capsys.readouterr().out == (
        "== snf ==\nsnf: pass\n" + "".join(f"    {fact}\n" for fact in facts)
        + "summary: 1 checks | 1 pass, 0 fail, 0 inconclusive, 0 cited\n")


_BRAID_5 = ("B5: -4 -3 2 2 4 -2 -2 -2 -4 -1 -1 -4 -2 2 1 4 -2 -3 3 3 2 -2 -4 -3 -1 3 -3 "
            "-4 -4 -1 -1 -3 -2 -4")
_BRAID_6 = ("B6: 1 4 4 -4 -2 -5 -5 1 4 1 -3 -5 1 4 1 5 1 3 -2 -3 -4 2 2 -5 -3 -5 3 3 -4 -1 "
            "-4 3 -5")


@pytest.mark.parametrize("braid, polynomial, multiset", [
    ("B1:", "1", "[1]"),
    ("B2: 1 1 1", "t^-1 - 1 + t", "[-1, 1, 1]"),
    ("B3: 1 -2 1 -2", "-t^-1 + 3 - t", "[-1, -1, 3]"),
    (_BRAID_5, "t^-5 - t^-4 + t^-2 - t^-1 + 1 - t + t^2 - t^4 + t^5",
     "[-1, -1, -1, -1, 1, 1, 1, 1, 1]"),
    (_BRAID_6, "t^-8 - 6 t^-7 + 18 t^-6 - 35 t^-5 + 53 t^-4 - 67 t^-3 + 75 t^-2 - 78 t^-1 "
               "+ 79 - 78 t + 75 t^2 - 67 t^3 + 53 t^4 - 35 t^5 + 18 t^6 - 6 t^7 + t^8",
     "[-78, -78, -67, -67, -35, -35, -6, -6, 1, 1, 18, 18, 53, 53, 75, 75, 79]"),
], ids=["unknot", "trefoil", "figure-eight", "batch-5-strand", "batch-6-strand"])
def test_cli_alexander_output_pinned(capsys, braid, polynomial, multiset):
    """Unknot, trefoil, figure eight and two alexander-batch braids, pinned."""
    assert main(["--format", "machine", "alexander", braid]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"alexander {braid}\tpass\tpolynomial {polynomial}; coefficient multiset {multiset}\n")


def test_cli_alexander_family_output_pinned(capsys):
    """K_r = T(2, 2r+1) has the alternating polynomial t^-r - ... + t^r."""
    lines = [
        "alexander K_1 B2: 1 1 1\tpass\tpolynomial t^-1 - 1 + t; "
        "coefficient multiset [-1, 1, 1]",
        "alexander K_2 B2: 1 1 1 1 1\tpass\tpolynomial t^-2 - t^-1 + 1 - t + t^2; "
        "coefficient multiset [-1, -1, 1, 1, 1]",
        "alexander K_3 B2: 1 1 1 1 1 1 1\tpass\tpolynomial t^-3 - t^-2 + t^-1 - 1 + t - t^2 "
        "+ t^3; coefficient multiset [-1, -1, -1, 1, 1, 1, 1]",
        "alexander K_4 B2: 1 1 1 1 1 1 1 1 1\tpass\tpolynomial t^-4 - t^-3 + t^-2 - t^-1 + 1 "
        "- t + t^2 - t^3 + t^4; coefficient multiset [-1, -1, -1, -1, 1, 1, 1, 1, 1]",
        "alexander K_5 B2: 1 1 1 1 1 1 1 1 1 1 1\tpass\tpolynomial t^-5 - t^-4 + t^-3 - t^-2 "
        "+ t^-1 - 1 + t - t^2 + t^3 - t^4 + t^5; coefficient multiset "
        "[-1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1]",
        "alexander K_6 B2: 1 1 1 1 1 1 1 1 1 1 1 1 1\tpass\tpolynomial t^-6 - t^-5 + t^-4 "
        "- t^-3 + t^-2 - t^-1 + 1 - t + t^2 - t^3 + t^4 - t^5 + t^6; coefficient multiset "
        "[-1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1]",
        "alexander K_7 B2: 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\tpass\tpolynomial t^-7 - t^-6 + t^-5 "
        "- t^-4 + t^-3 - t^-2 + t^-1 - 1 + t - t^2 + t^3 - t^4 + t^5 - t^6 + t^7; coefficient "
        "multiset [-1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1]",
        "alexander K_8 B2: 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\tpass\tpolynomial t^-8 - t^-7 "
        "+ t^-6 - t^-5 + t^-4 - t^-3 + t^-2 - t^-1 + 1 - t + t^2 - t^3 + t^4 - t^5 + t^6 - t^7 "
        "+ t^8; coefficient multiset [-1, -1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1]",
    ]
    assert main(["--format", "machine", "alexander", "family", "count=8"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_cli_bounds_flags(capsys):
    code = main(["--bounds-cosets", "50", "--bounds-rules", "20",
                 "verify", "tori", "m=1", "n=1"])
    assert code in (EXIT_OK, 3)  # tiny bounds may leave it inconclusive


@pytest.mark.parametrize("flags, tori, free", [
    ([], "cap 3 exhausted", "rewrite-rule cap 1 exhausted"),
    (["--bounds-cosets", "100"], "(19 cosets allocated, cap 100)",
     "rewrite-rule cap 1 exhausted"),
    (["--bounds-rules", "100"], "cap 3 exhausted", "(8 rules, confluent=True)"),
    (["--bounds-cosets", "100", "--bounds-rules", "100"], "(19 cosets allocated, cap 100)",
     "(8 rules, confluent=True)"),
])
def test_cli_bounds_flag_overrides_only_its_own_scenario_bound(tmp_path, capsys, flags,
                                                              tori, free):
    """A Z^2 target has no index test, so Knuth-Bendix shows the rule bound."""
    path = tmp_path / "bounds.json"
    free_abelian = {"ambient": {"form": [[0, 1], [1, 0]]}, "components": [],
                    "pi1": "gens: a b ; rels: [a,b] ;"}
    path.write_text(json.dumps({"bounds": {"cosets": 3, "rules": 1}, "checks": [
        {"builtin": "tori", "params": {"m": 2, "n": 3}},
        {"configuration": free_abelian, "verify": {"group": "Z^2"}}]}))
    main(["--format", "machine", *flags, "verify", str(path)])
    lines = _machine_lines(capsys.readouterr().out)
    assert tori in lines["tori m=2 n=3 :: group"][1]
    assert free in lines["checks[1] group"][1]


def test_cli_rejects_nonpositive_bounds(tmp_path, capsys):
    """Flags and a scenario's `bounds` are refused by the one range rule of `Bounds`."""
    for flags in (["--bounds-cosets", "0"], ["--bounds-rules", "-1"]):
        assert main(flags + ["verify", "tori", "m=1", "n=1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bounds must be >= 1\n"
    _assert_usage_errors(tmp_path, capsys, [
        ({"bounds": {"cosets": 0}, "checks": []}, "error: PATH: bounds must be >= 1\n"),
        ({"bounds": {"rules": "-1"}, "checks": []}, "error: PATH: bounds must be >= 1\n")])


def test_cli_flags_after_subcommand(capsys):
    code = main(["verify", "nodal", "d1=2", "d2=4", "--format", "machine"])
    before = capsys.readouterr().out
    assert code == EXIT_OK
    code = main(["--format", "machine", "verify", "nodal", "d1=2", "d2=4"])
    after = capsys.readouterr().out
    assert code == EXIT_OK
    assert before == after
    assert "\t" in before


def test_cli_calls_in_one_process_do_not_leak(capsys):
    """Each argv gives the same exit code, stdout and stderr whatever ran
    before it in the process."""
    spheres = os.path.join(SCENARIO_DIR, "custom_spheres.json")
    argvs = [
        ["--format", "text", "verify", "nodal", "d1=2", "d2=4"],
        ["--format", "machine", "verify", "nodal", "d1=2", "d2=4"],
        # a bounds flag left behind would override the file's own bounds
        ["--format", "machine", "--bounds-cosets", "500", "verify", spheres],
        ["--format", "machine", "verify", spheres],
        ["verify", "nodal", "d1=2", "d2=4"],
        ["snf", "--format", "machine", "2 1; 1 2"],
        ["--bounds-cosets", "x", "verify", "nodal", "d1=2", "d2=4"],
        ["--help"],
        ["no-such-command"],
    ]
    def run(order):
        results = {}
        for i in order:
            code = main(list(argvs[i]))
            captured = capsys.readouterr()
            results[i] = (code, captured.out, captured.err)
        return results

    forward = run(range(len(argvs)))
    backward = run(reversed(range(len(argvs))))
    assert forward == backward
    codes = [forward[i][0] for i in range(len(argvs))]
    assert codes == [EXIT_OK] * 6 + [EXIT_USAGE, EXIT_OK, EXIT_USAGE]
    assert "cap 500)" in forward[2][1] and "cap 500)" not in forward[3][1]
    assert forward[7][1].startswith("usage: dpsurgery")


def _machine_lines(out):
    return {name: (verdict, evidence) for name, verdict, evidence in
            (line.split("\t") for line in out.strip().splitlines())}


def test_cli_capped_cross_validation_is_inconclusive(capsys):
    # the amalgam hits the cap on the simplified knot group and again on the
    # unsimplified one, and its commutator subgroup needs 6 * 6 + 1 = 37 rows
    # and Schreier generators; group-preserved decides within the cap by the
    # commutator subgroup of the 4-generator collapsed presentation (25)
    code = main(["--format", "machine", "--bounds-cosets", "30", "--bounds-rules", "200",
                 *_F3_SURGERY])
    lines = _machine_lines(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    verdict, evidence = lines["cross-validation"]
    assert verdict == "inconclusive"
    assert "order comparison skipped: an enumeration hit its cap" in evidence
    assert lines["group-preserved"][0] == "pass"
    assert "table cap 30 exhausted" in lines["group-preserved"][1]
    assert "commutator subgroup is trivial" in lines["group-preserved"][1]


def test_cli_capped_cross_validation_takes_orders_from_the_commutator_subgroup(capsys):
    # both paths cap at 500 on both knot groups; the orders come from the
    # commutator subgroups, and the fact says so
    assert main(["--format", "machine", *_CAPPED_F3]) == EXIT_OK
    lines = _machine_lines(capsys.readouterr().out)
    assert lines["cross-validation"] == (
        "pass", "amalgam abelianization Z_6, collapsed abelianization Z_6; "
                "enumerated orders 6 and 6; amalgam and collapsed orders from the "
                "commutator subgroup")


def test_cli_cross_validation_decides_on_the_simplified_knot_group(capsys):
    # T(2,21): on the unsimplified Wirtinger group an enumeration hits the
    # default cap; on the meridian-kept simplification both paths close
    code = main(["--format", "machine", "surgery", "case=F3", "m=3", "n=2", "k=1",
                 "knot=B2: " + " ".join(["1"] * 21)])
    lines = _machine_lines(capsys.readouterr().out)
    assert code == EXIT_OK
    assert lines["cross-validation"] == (
        "pass", "amalgam abelianization Z_6, collapsed abelianization Z_6; "
                "enumerated orders 6 and 6")


def test_cli_cross_validation_capped_path_is_decided_by_the_commutator_subgroup(capsys):
    # here the amalgam hits the cap on the simplified knot group; its finite
    # order comes from the commutator subgroup, so the check still decides
    code = main(["--format", "machine", "--bounds-cosets", "500", "--bounds-rules", "200",
                 "surgery", "case=F3", "m=5", "n=1", "k=1",
                 "knot=B4: -1 -2 2 -1 -2 -2 2 2 1 -3 -2"])
    lines = _machine_lines(capsys.readouterr().out)
    assert code == EXIT_OK
    assert lines["cross-validation"] == (
        "pass", "amalgam abelianization Z_5, collapsed abelianization Z_5; "
                "enumerated orders 5 and 5; amalgam order from the commutator subgroup")


def test_cli_theorem_7_2_capped_is_inconclusive(capsys):
    code = main(["--format", "machine", "--bounds-cosets", "5",
                 "verify", "theorem-7-2", "m=3", "n=2"])
    lines = _machine_lines(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert list(lines) == ["cover-plan"]
    verdict, evidence = lines["cover-plan"]
    assert verdict == "inconclusive" and "table cap 5 exhausted" in evidence
    # the plan completes at cap 30, but no member does: each member's
    # enumeration caps, and the commutator subgroup route needs more rows
    # and Schreier generators than the cap allows (10 cosets of Z_5 + Z_2)
    code = main(["--format", "machine", "--bounds-cosets", "30",
                 "actions", "m=5", "n=2", "k=1", "count=5"])
    lines = _machine_lines(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert lines["cover-plan"][0] == "pass"
    assert lines["group-preserved-per-knot"] == (
        "inconclusive", "0/5 knots verified isomorphic to Z_5 + Z_2, 5 inconclusive")
    assert lines["conclusion"] == (
        "inconclusive", "certificate inconclusive at: group-preserved-per-knot")


def test_cli_scenario_input_errors_name_the_entry(tmp_path, capsys):
    spheres = _sphere_configuration_entry()

    def custom_spheres(**surgery):
        """The Z_6 example scenario with its surgery block changed."""
        with open(os.path.join(SCENARIO_DIR, "custom_spheres.json"), encoding="utf-8") as f:
            scenario = json.load(f)
        scenario["checks"][0]["surgery"].update(surgery)
        return scenario

    def misspelt(*path):
        """custom_spheres.json with the key at `path` renamed to a misspelling."""
        scenario = custom_spheres()
        block = scenario
        for key in path[:-1]:
            block = block[key]
        block[path[-1] + "x"] = block.pop(path[-1])
        return scenario

    three_components = custom_spheres()
    configuration = three_components["checks"][0]["configuration"]
    configuration["components"].append({"label": "S_0", "genus": 0, "class": [0, 0]})
    configuration["pi1"] = ("gens: a b c ; rels: a^3 , b^2 , [a,b] , c ; "
                            "labels: mu1=a mu2=b mu3=c ;")

    cases = [
        ({"checks": [{"builtin": "tori", "params": [1, 2]}]},
         "error: PATH: checks[0]: params must be an object\n"),
        ({"checks": [{"builtin": "tori", "params": {"m": 1, "n": 1}},
                     {"configuration": spheres,
                      "surgery": {"point": 7, "knot": "B2: 1 1 1", "twist": 1}}]},
         "error: checks[1]: surgery: double point index 7 out of range\n"),
        # a case's group claim is about its own twist and its own base group;
        # F3(5,7) has H1 Z_35, not Z_6, so its relations span another lattice
        (custom_spheres(twist=2), "error: checks[0]: surgery: case k=1 differs from twist 2\n"),
        (custom_spheres(case={"tag": "F3", "m": 5, "n": 7, "k": 1}),
         "error: checks[0]: surgery: case F3(m=5, n=7, k=1) does not match the meridian "
         "relations at double point 0\n"),
        # F3(2,3) has the H1 Z_6 too, but its mu1 has order 2 and the point's
        # first component S_m has a meridian of order 3
        (custom_spheres(twist=3, case={"tag": "F3", "m": 2, "n": 3, "k": 3}),
         "error: checks[0]: surgery: case F3(m=2, n=3, k=3) does not match the meridian "
         "relations at double point 0\n"),
        (three_components, "error: checks[0]: surgery: case F3(m=3, n=2, k=1) needs a "
                           "two-component configuration, not 3 components\n"),
        # an unknown key is refused in every block, never silently dropped
        (misspelt("checks"), "error: PATH: top level: unknown parameter 'checksx'\n"),
        ({"bounds": {"coset": 50}, "checks": []},
         "error: PATH: bounds: unknown parameter 'coset'\n"),
        ({"checks": [{"builtin": "tori", "parms": {"m": 1, "n": 1}}]},
         "error: PATH: checks[0]: unknown parameter 'parms'\n"),
        (misspelt("checks", 0, "verify"), "error: PATH: checks[0]: unknown parameter 'verifyx'\n"),
        (misspelt("checks", 0, "configuration", "pi1"),
         "error: checks[0]: configuration: unknown parameter 'pi1x'\n"),
        (misspelt("checks", 0, "configuration", "ambient", "basis"),
         "error: checks[0]: ambient: unknown parameter 'basisx'\n"),
        (misspelt("checks", 0, "configuration", "components", 1, "genus"),
         "error: checks[0]: components[1]: unknown parameter 'genusx'\n"),
        (misspelt("checks", 0, "verify", "group"),
         "error: checks[0]: verify: unknown parameter 'groupx'\n"),
        (misspelt("checks", 0, "surgery", "case"),
         "error: checks[0]: surgery: unknown parameter 'casex'\n"),
        # the case block takes the fields of its own tag only
        (custom_spheres(case={"tag": "F3", "m": 3, "n": 2, "d": 2, "k": 1}),
         "error: checks[0]: case: unknown parameter 'd'\n"),
        # integer strings are read as on argv; a key given twice is refused
        ({"checks": [{"builtin": "tori", "params": {"m": "1_0", "n": 1}}]},
         "error: checks[0]: params: m must be an integer\n"),
        ({"checks": [{"builtin": "tori", "params": {"m": "\u0663", "n": 1}}]},
         "error: checks[0]: params: m must be an integer\n"),
        (custom_spheres(twist=" 1"), "error: checks[0]: surgery: twist must be an integer\n"),
        ('{"bounds": {"cosets": 5, "cosets": 100000}, "checks": []}',
         "error: PATH: duplicate key 'cosets'\n"),
        ('{"checks": [{"builtin": "tori", "params": {"m": 1, "n": 1, "m": 2}}]}',
         "error: PATH: duplicate key 'm'\n"),
    ]
    _assert_usage_errors(tmp_path, capsys, cases)


def _assert_usage_errors(tmp_path, capsys, cases):
    """Each scenario (JSON text, or an object to dump) exits 2 with its message."""
    for scenario, message in cases:
        path = tmp_path / "scenario.json"
        path.write_text(scenario if isinstance(scenario, str) else json.dumps(scenario))
        assert main(["verify", str(path)]) == EXIT_USAGE, scenario
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.replace("PATH", str(path))


def test_cli_scenario_rejects_malformed_group_text(tmp_path, capsys):
    """A verify group string with a negative rank or a bad term is an input error.

    "Z^-1 + Z_2" used to parse as Z_2, so the check below passed with exit 0.
    """
    def verify(text, field="homology"):
        pi1 = "gens: a b ; rels: a , b ; labels: mu1=a mu2=b ;"
        entry = dict(_sphere_configuration_entry(), pi1=pi1)
        return {"checks": [{"configuration": entry, "verify": {field: text}}]}

    cases = [
        (verify("Z^-1 + Z_2"), "error: checks[0]: verify: cannot parse abelian group term 'Z^-1'\n"),
        (verify("Z^-1"), "error: checks[0]: verify: cannot parse abelian group term 'Z^-1'\n"),
        (verify(""), "error: checks[0]: verify: empty abelian group text\n"),
        (verify("Z^x"), "error: checks[0]: verify: cannot parse abelian group term 'Z^x'\n"),
        (verify("Z^x", "group"), "error: checks[0]: verify: cannot parse abelian group term 'Z^x'\n"),
        # a group is a JSON string: the number 0 is not read as the trivial group
        (verify(0), "error: checks[0]: verify: homology must be a string\n"),
        (verify(1, "group"), "error: checks[0]: verify: group must be a string\n"),
    ]
    _assert_usage_errors(tmp_path, capsys, cases)


def test_cli_scenario_rejects_non_integer_numbers(tmp_path, capsys):
    """A JSON float or boolean where an integer belongs is an input error.

    Truncated, the first case would run tori m=2 at coset cap 2.
    """
    def surgery(**fields):
        block = {"point": 0, "knot": "B2: 1 1 1", "twist": 1}
        block.update(fields)
        return {"checks": [{"configuration": _sphere_configuration_entry(),
                            "surgery": block}]}

    def component_class(value):
        entry = _sphere_configuration_entry()
        entry["components"][0]["class"] = value
        return {"checks": [{"configuration": entry}]}

    tori = {"builtin": "tori", "params": {"m": 2.9, "n": 1}}
    case = {"tag": "F3", "m": 3, "n": 2.0, "k": 1}
    cases = [
        ({"bounds": {"cosets": 2.5, "rules": True}, "checks": [tori]},
         "error: PATH: bounds: cosets must be an integer; rules must be an integer\n"),
        ({"bounds": {"cosets": 100, "rules": True}, "checks": []},
         "error: PATH: bounds: rules must be an integer\n"),
        ({"checks": [tori]}, "error: checks[0]: params: m must be an integer\n"),
        ({"checks": [{"builtin": "tori", "params": {"m": 2, "n": True}}]},
         "error: checks[0]: params: n must be an integer\n"),
        ({"checks": [{"builtin": "theorem-1-1", "params": {"case": "ii", "k": 1.5}}]},
         "error: checks[0]: params: k must be an integer\n"),
        (component_class([1.7, 0]),
         "error: checks[0]: components[0]: class must be a list of integers\n"),
        (surgery(point=0.0), "error: checks[0]: surgery: point must be an integer\n"),
        (surgery(twist=True), "error: checks[0]: surgery: twist must be an integer\n"),
        (surgery(case=case), "error: checks[0]: case: n must be an integer\n"),
    ]
    _assert_usage_errors(tmp_path, capsys, cases)
    # argv values are strings and parse as before
    assert main(["verify", "tori", "m=2.9", "n=1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: m must be an integer\n"
    assert main(["verify", "tori", "m=1", "n=1"]) == EXIT_OK


def test_cli_scenario_wrong_type_fields_are_named(tmp_path, capsys):
    """A configuration field of the wrong JSON type is named, not Python's message."""
    def configuration(**fields):
        entry = _sphere_configuration_entry()
        entry.update(fields)
        return {"checks": [{"configuration": entry}]}

    form = [[0, 1], [1, 0]]
    ambient = _sphere_configuration_entry()["ambient"]
    non_simply_connected = _sphere_configuration_entry()
    non_simply_connected["ambient"]["simply_connected"] = False
    cases = [
        ({"checks": [{"configuration": {"ambient": {"form": form}, "components": 5}}]},
         "error: checks[0]: configuration: components must be a list of objects\n"),
        (configuration(ambient=[form]),
         "error: checks[0]: configuration: ambient must be an object\n"),
        (configuration(ambient={"form": 3}),
         "error: checks[0]: ambient: form must be a list of lists of integers\n"),
        (configuration(ambient={"form": [[0, 1], 1]}),
         "error: checks[0]: ambient: form must be a list of lists of integers\n"),
        (configuration(components=[{"class": 7}, {"class": [0, 1]}]),
         "error: checks[0]: components[0]: class must be a list of integers\n"),
        (configuration(components=[{"class": [1, 0]}, "S2"]),
         "error: checks[0]: configuration: components must be a list of objects\n"),
        (configuration(double_points=7),
         "error: checks[0]: configuration: double_points must be a list of lists of integers\n"),
        (configuration(double_points=[[0, 1]]),
         "error: checks[0]: configuration: double_points out of range: each double "
         "point is [component, component, sign]\n"),
        ({"checks": [{"configuration": [1]}]},
         "error: PATH: checks[0]: configuration must be an object\n"),
        # booleans take JSON booleans; the string "false" is not false
        (configuration(ambient=dict(ambient, simply_connected="false")),
         "error: checks[0]: ambient: simply_connected must be a boolean\n"),
        (configuration(symplectic_positive=1),
         "error: checks[0]: configuration: symplectic_positive must be a boolean\n"),
        # complement H1 is defined here only for a simply connected ambient
        ({"checks": [{"configuration": non_simply_connected, "verify": {"homology": "0"}}]},
         "error: checks[0]: verify: homology needs a simply connected ambient manifold\n"),
        # text fields take JSON strings: a list is not read as its Python
        # text (`bad matrix row '[[2, 4], [6, 8]]'`, the braid word
        # "['B2: 1 1 1']"), nor the name 5 as "5"
        ({"checks": [{"builtin": "snf", "params": {"matrix": [[2, 4], [6, 8]]}}]},
         "error: checks[0]: params: matrix must be a string\n"),
        ({"checks": [{"builtin": "tori", "params": {"m": 3, "n": 2, "knot": ["B2: 1 1 1"]}}]},
         "error: checks[0]: params: knot must be a string\n"),
        ({"checks": [{"configuration": _sphere_configuration_entry(),
                      "surgery": {"point": 0, "knot": ["B2: 1 1 1"], "twist": 1}}]},
         "error: checks[0]: surgery: knot must be a string\n"),
        (configuration(ambient=dict(ambient, name=5)),
         "error: checks[0]: ambient: name must be a string\n"),
    ]
    _assert_usage_errors(tmp_path, capsys, cases)
