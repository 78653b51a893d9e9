"""Benchmark of dpsurgery's verification pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surgery-sweep --seed 1 --seconds 25 --trace 0

The workloads are listed in ``workloads.WORKLOADS``.  With ``--trace 0``
the run reports end-to-end metrics: latency median and 90th percentile,
throughput, share of requests whose headline verdict was decided, set-up
time (import of dpsurgery plus CLI parser construction, median of fresh
processes) and the workload process's peak resident memory.  Timings are
in reference time (see ``calibration.py``).  With ``--trace 1`` it reports
per-layer metrics from a traced replay.  Every output is checked against
``oracle.py``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's inputs,
reference findings and (traced) spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 9
SETUP_CODE = ("import sys, time\n"
              "start = time.perf_counter()\n"
              "import dpsurgery.cli\n"
              "dpsurgery.cli.build_parser()\n"
              "elapsed = time.perf_counter() - start\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import calibration\n"
              "kernel = sorted(calibration.kernel() for _ in range(3))[1]\n"
              "print(elapsed * calibration.REFERENCE_S / kernel)\n")
# a run may go on past the deadline (see worker.MIN_REQUESTS); beyond
# this the worker is stopped
WORKER_GRACE_S = 120
# a timed run is valid only with this many latencies beyond its p90
MIN_BEYOND_P90 = 10
# the layers' self times must match the traced requests' own timed
# latencies to within this share
SELF_TIME_TOLERANCE = 0.01
OUT_DIR = ".bench_out"


def measure_setup(root: str) -> list[float]:
    """Import-and-parser time in fresh interpreter processes, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(SETUP_PROCESSES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, HERE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times


def run_worker(root: str, args, result_path: str, spans_path: str) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result_path]
    if args.trace:
        command += ["--spans", spans_path]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def check_all(records: list[dict]) -> tuple[int, int, list[dict]]:
    """(failed, undecided, per-request findings) against the reference oracle."""
    failed = undecided = 0
    findings = []
    for record in records:
        finding = oracle.check(record["request"], record["exit"], record["stdout"],
                               record["error"])
        failed += finding.failed
        undecided += finding.undecided
        findings.append({"failed": finding.failed, "undecided": finding.undecided,
                         "reasons": finding.reasons, "exit": record["exit"],
                         "latency_s": record["latency_s"]})
    return failed, undecided, findings


def self_time_gap(layer_self_s: dict, traced: list[dict]) -> float:
    """Relative gap between the layers' summed self time and the request time.

    The request time is the sum of ``latency_s``, which the worker's loop
    measures with its own timer around each traced request.
    """
    request_s = sum(r["latency_s"] for r in traced)
    return abs(sum(layer_self_s.values()) - request_s) / request_s


def end_to_end(records: list[dict], elapsed: float, undecided: int, setup: list[float],
               peak_rss_kb: int) -> tuple[dict, dict]:
    """Timings are in reference time (see calibration.py); raw ones go to the notes."""
    latencies = [r["ref_latency_s"] * 1000.0 for r in records]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    raw = [r["latency_s"] * 1000.0 for r in records]
    metrics = {
        "latency_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "throughput_rps": {"value": 1000.0 * len(records) / sum(latencies), "unit": "1/s"},
        "decided_share": {"value": 1.0 - undecided / len(records), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }
    notes = {"samples": len(latencies), "beyond_p90": sum(1 for x in latencies if x > p90),
             "undecided": undecided, "setup_samples_s": setup, "elapsed_s": elapsed,
             "raw_latency_p50_ms": statistics.median(raw),
             "raw_latency_p90_ms": statistics.quantiles(raw, n=10, method="inclusive")[8],
             "raw_throughput_rps": len(records) / elapsed}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpsurgery", "__init__.py")):
        print(f"error: no dpsurgery sources under {os.path.join(root, 'src')}; "
              "run from the root of a dpsurgery checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        setup = [] if args.trace else measure_setup(root)
        data = run_worker(root, args, stem + "-raw.json", stem + "-spans.json")
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    records = data["untraced"] + data.get("traced", [])
    failed, undecided, findings = check_all(records)
    invalid = None
    manifest = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "warmup_inputs": [_input(r) for r in data["warmup"]],
        "inputs": [_input(r["request"]) for r in data["untraced"]],
        "findings": findings,
    }
    if args.trace:
        gap = self_time_gap(data["layer_self_s"], data["traced"])
        manifest["trace"] = {"layer_self_s": data["layer_self_s"],
                             "traced_request_s": sum(r["latency_s"] for r in data["traced"]),
                             "self_time_gap": gap, "spans": data["spans"]}
        if gap > SELF_TIME_TOLERANCE:
            invalid = (f"layer self times differ from the traced request time by "
                       f"{gap:.2%}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in data["layers"].items()}
    else:
        metrics, notes = end_to_end(data["untraced"], data["elapsed_s"], undecided, setup,
                                    data["peak_rss_kb"])
        manifest["notes"] = notes
        if notes["beyond_p90"] < MIN_BEYOND_P90:
            invalid = (f"only {notes['beyond_p90']} of {notes['samples']} latencies lie "
                       f"beyond p90; at least {MIN_BEYOND_P90} are needed")
    with open(stem + "-manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    if invalid:
        print(f"error: {invalid}", file=sys.stderr)
        return 1

    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def _input(request: dict) -> object:
    return request["argv"] if request["kind"] == "cli" else json.loads(request["text"])


def _layer_unit(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("cosets_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s/req"
    if name == "reports.bytes":
        return "B/req"
    return "count/req"


if __name__ == "__main__":
    sys.exit(main())
