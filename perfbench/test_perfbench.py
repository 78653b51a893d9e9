"""Tests of the benchmark itself: generators, reference oracle and tracer.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from math import gcd

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402


def _run(request: dict) -> tuple[int, str]:
    from dpsurgery import cli, scenarios
    return worker.execute(request, cli, scenarios)


def _first(workload: str, seed: int, n: int) -> list[dict]:
    return list(itertools.islice(workloads.requests(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 7, 60) == _first(workload, 7, 60)
    assert _first(workload, 7, 60) != _first(workload, 8, 60)


def test_knot_braids_close_to_knots_and_impossible_parities_fail_fast():
    for strands, length in ((2, 4), (3, 3), (4, 2), (6, 40)):
        with pytest.raises(ValueError):
            workloads.random_knot_braid(random.Random(0), strands, length)
    rng = random.Random(1)
    for strands in range(2, 7):
        for length in range(strands - 1, 20, 2):
            for tries in (0, 200):
                letters = workloads.random_knot_braid(rng, strands, length, tries=tries)
                assert len(letters) == length
                assert workloads.closes_to_knot(strands, letters)


def test_surgery_cases_satisfy_their_hypotheses():
    for request in _first("surgery-sweep", 3, 200):
        params = dict(a.split("=", 1) for a in request["argv"] if "=" in a)
        case, k = params["case"], int(params["k"])
        if case == "F1":
            assert k == 0
        elif case == "F2":
            assert gcd(int(params["p"]) + k, int(params["q"])) == 1
        else:
            assert gcd(int(params["m"]), k * int(params["n"])) == 1


def test_group_text_is_invariant_factor_form():
    assert workloads.group_text({"rank": 0, "orders": [4, 6]}) == "Z_2 + Z_12"
    assert workloads.group_text({"rank": 0, "orders": [3, 2]}) == "Z_6"
    assert workloads.group_text({"rank": 1, "orders": []}) == "Z"
    assert workloads.group_text({"rank": 1, "orders": [6, 4]}) == "Z + Z_2 + Z_12"
    assert workloads.group_text({"rank": 0, "orders": []}) == "0"


def test_burau_reference_matches_closed_form_and_known_knots():
    for r in range(1, 8):
        assert oracle.burau_alexander(2, (1,) * (2 * r + 1)) == oracle.torus_alexander(r)
    assert oracle.burau_alexander(3, (1, -2, 1, -2)) == (-1, (-1, 3, -1))  # figure eight
    assert oracle.burau_alexander(3, (1, 2)) == (0, (1,))  # unknot


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_accepts_the_program_on_generated_requests(workload):
    for request in _first(workload, 11, 3 if workload == "config-groups" else 12):
        code, stdout = _run(request)
        finding = oracle.check(request, code, stdout, None)
        assert not finding.failed, finding.reasons


def test_oracle_flags_a_corrupted_polynomial():
    request = {"kind": "cli", "argv": ["--format", "machine", "alexander", "B3: 1 -2 1 -2"],
               "expect": {"workload": "alexander-batch", "braid": "B3: 1 -2 1 -2"}}
    code, stdout = _run(request)
    assert not oracle.check(request, code, stdout, None).failed
    corrupted = stdout.replace("+ 3 -", "+ 5 -")
    assert corrupted != stdout
    assert oracle.check(request, code, corrupted, None).failed


def test_oracle_flags_a_flipped_verdict_and_counts_inconclusive_as_undecided():
    request = next(r for r in _first("surgery-sweep", 5, 45) if "case=F3" in r["argv"])
    code, stdout = _run(request)
    assert "group-preserved\tpass\t" in stdout
    assert not oracle.check(request, code, stdout, None).failed
    flipped = stdout.replace("group-preserved\tpass\t", "group-preserved\tfail\t")
    assert oracle.check(request, 1, flipped, None).failed
    undecided = stdout.replace("group-preserved\tpass\t", "group-preserved\tinconclusive\t")
    finding = oracle.check(request, 3, undecided, None)
    assert finding.undecided and not finding.failed
    assert oracle.check(request, 2, "", None).failed
    assert oracle.check(request, None, "", "RuntimeError: boom").failed


def test_oracle_flags_a_wrong_group_order():
    request = next(r for r in _first("surgery-sweep", 5, 45) if "case=F3" in r["argv"])
    code, stdout = _run(request)
    target = request["expect"]["target"]
    order = target["orders"][0] * target["orders"][1]
    wrong = stdout.replace(f"index {order} (", f"index {order + 1} (", 1)
    assert wrong != stdout
    assert oracle.check(request, code, wrong, None).failed


def test_tracer_restores_every_original_and_accounts_for_all_time():
    import dpsurgery.coset
    import dpsurgery.verify
    original = dpsurgery.coset.coset_enumerate
    request = {"kind": "cli", "argv": ["--format", "machine", "surgery", "case=F3", "m=3",
                                       "n=2", "k=1", "knot=B2: 1 1 1"]}
    tracer = Tracer()
    tracer.install()
    try:
        assert dpsurgery.verify.coset_enumerate is not original
        assert installed_wrappers()
        record = worker._timed(request, lambda: tracer.run_request(0, lambda: _run(request)))
    finally:
        tracer.uninstall()
    assert record["exit"] == 0 and record["error"] is None
    assert installed_wrappers() == []
    assert dpsurgery.verify.coset_enumerate is original
    assert dpsurgery.coset.coset_enumerate is original
    # base group, group-preserved and the two cross-validation enumerations;
    # the last two go through the function-local import in
    # scenarios._surgery_lines, so their parent span is a scenarios one
    assert tracer.counts["coset.calls"] == 4
    coset_parents = [tracer.spans[s[4]][0] for s in tracer.spans if s[0] == "coset"]
    assert coset_parents.count("scenarios") == 2
    assert tracer.counts["words.constructed"] > 0
    # the self times cover the latency that the loop timed on its own, and a
    # lost span shows as a gap
    self_s = {}
    for (layer, _), seconds in tracer.self_times().items():
        self_s[layer] = self_s.get(layer, 0.0) + seconds
    assert run.self_time_gap(self_s, [record]) < run.SELF_TIME_TOLERANCE
    del self_s[max(self_s, key=self_s.get)]
    assert run.self_time_gap(self_s, [record]) > run.SELF_TIME_TOLERANCE
    layers = {s[0] for s in tracer.spans}
    assert {"cli", "scenarios", "verify", "coset", "knots", "surgery", "snf"} <= layers


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    request = _first("surgery-sweep", 2, 1)[0]
    records = [{"request": request, "exit": 0, "stdout": "", "error": None,
                "latency_s": 0.01, "ref_latency_s": 0.01}]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_request(0, lambda: _run(request))
    finally:
        tracer.uninstall()
    layers, _ = worker.layer_metrics(tracer, records, records)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {name: run._layer_unit(name) for name in layers}
    e2e, _ = run.end_to_end(records * 3, 1.0, 0, [0.1], 20480)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        {name: value["unit"] for name, value in e2e.items()}
