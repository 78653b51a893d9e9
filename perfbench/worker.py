"""One workload's closed loop, run in its own process.

Started by ``run.py``; imports dpsurgery from the checkout's ``src``, sends
one request at a time (a single client, closed loop) until the time is
up, and writes every request with its exit code, output and latency to the
result file.  With ``--trace 1`` it runs the loop untraced for a third of
the time, replays the same requests with the layer tracer installed, then
replays them once more untraced as the reference for the tracing overhead,
and adds the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracer import HARNESS, LAYERS, Tracer, installed_wrappers  # noqa: E402

WARMUP_REQUESTS = 1
# A timed run goes on past its deadline until it holds MIN_REQUESTS, so that
# ten of them lie beyond p90, but for at most MAX_OVERRUN_S more seconds.
MIN_REQUESTS = 100
MAX_OVERRUN_S = 60.0


def _import_program():
    import dpsurgery
    if not os.path.abspath(dpsurgery.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"dpsurgery imported from {dpsurgery.__file__}, not {SRC}")
    from dpsurgery import cli, scenarios
    return cli, scenarios


def execute(request: dict, cli, scenarios) -> tuple[int, str]:
    """One request through the public entry point; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if request["kind"] == "cli":
            code = cli.main(request["argv"])
        else:
            report = scenarios.run_scenario_text(request["text"])
            out.write(report.render("machine"))
            code = report.exit_code()
    return code, out.getvalue()


def _timed(request: dict, call) -> dict:
    start = perf_counter()
    try:
        code, stdout = call()
        error = None
    except Exception as exc:  # recorded as a failed request, the loop goes on
        code, stdout, error = None, "", f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    return {"request": request, "exit": code, "stdout": stdout, "error": error,
            "start": start, "latency_s": end - start}


def run_loop(requests, call, deadline: float | None = None,
             min_requests: int = 0) -> tuple[list[dict], float]:
    """Send requests one at a time until they run out or the deadline passes.

    Past the deadline the loop goes on until it has sent ``min_requests``,
    for at most ``MAX_OVERRUN_S`` seconds.

    ``call(index, request)`` runs one request.  The calibration kernel is
    sampled between requests, and each record gets ``ref_latency_s``, its
    latency in reference seconds (see calibration.py).
    """
    calibration = Calibration()
    done = []
    start = perf_counter()
    for index, request in enumerate(requests):
        now = perf_counter()
        if deadline is not None and now >= deadline and (
                len(done) >= min_requests or now >= deadline + MAX_OVERRUN_S):
            break
        calibration.maybe_sample()
        done.append(_timed(request, lambda: call(index, request)))
    calibration.sample()
    for record in done:
        factor = calibration.factor(record["start"], record["start"] + record["latency_s"])
        record["ref_latency_s"] = record["latency_s"] * factor
    return done, perf_counter() - start


def layer_metrics(tracer: Tracer, traced: list[dict],
                  untraced: list[dict]) -> tuple[dict, dict]:
    """Per-request layer figures of one traced pass, times in reference seconds.

    Also returns each layer's raw self seconds, which should add up to the
    traced requests' latencies (``run.py`` checks that).
    """
    traced_s = sum(r["ref_latency_s"] for r in traced)
    untraced_s = sum(r["ref_latency_s"] for r in untraced)
    scale = traced_s / sum(r["latency_s"] for r in traced)
    raw_self_s: dict[str, float] = {}
    for (layer, _), seconds in tracer.self_times().items():
        raw_self_s[layer] = raw_self_s.get(layer, 0.0) + seconds
    by_function = {key: seconds * scale for key, seconds in tracer.self_times().items()}
    self_s = {layer: seconds * scale for layer, seconds in raw_self_s.items()}
    c = tracer.counts
    per = 1.0 / len(traced)

    def count(key: str) -> float:
        return c.get(key, 0.0) * per

    coset_s = self_s.get("coset", 0.0)
    metrics = {
        "coset.calls": count("coset.calls"),
        "coset.self_s": coset_s * per,
        "coset.cosets_allocated": count("coset.cosets_allocated"),
        "coset.cosets_per_s": c.get("coset.cosets_allocated", 0.0) / coset_s if coset_s else 0.0,
        "coset.cap_hits": count("coset.cap_hits"),
        "coset.useful_ratio": (c["coset.completed_index"] / c["coset.completed_allocated"]
                               if c.get("coset.completed_allocated") else 0.0),
        "alexander.calls": count("alexander.calls"),
        "alexander.self_s": self_s.get("alexander", 0.0) * per,
        "alexander.det_self_s": by_function.get(("alexander", "laurent_determinant"), 0.0) * per,
        "alexander.matrix_dim": count("alexander.matrix_dim"),
        "presentations.tietze_calls": count("presentations.tietze_calls"),
        "presentations.tietze_self_s":
            by_function.get(("presentations", "simplify_presentation"), 0.0) * per,
        "presentations.gens_eliminated": count("presentations.gens_eliminated"),
        "presentations.abelianization_self_s":
            by_function.get(("presentations", "abelianization"), 0.0) * per,
        "snf.calls": count("snf.calls"),
        "snf.self_s": self_s.get("snf", 0.0) * per,
        "snf.entries": count("snf.entries"),
        "rewriting.calls": count("rewriting.calls"),
        "rewriting.self_s": self_s.get("rewriting", 0.0) * per,
        "rewriting.rules_admitted": count("rewriting.rules_admitted"),
        "rewriting.cap_hits": count("rewriting.cap_hits"),
        "rewriting.live_ratio": (c["rewriting.live_rules"] / c["rewriting.rules_admitted"]
                                 if c.get("rewriting.rules_admitted") else 0.0),
        "verify.self_s": self_s.get("verify", 0.0) * per,
        "verify.witness_s": tracer.inclusive("nonabelian_quotient_witness") * scale * per,
        "verify.inconclusive": count("verify.inconclusive"),
        "knots.calls": count("knots.calls"),
        "knots.self_s": self_s.get("knots", 0.0) * per,
        "knots.arcs": count("knots.arcs"),
        "surgery.self_s": self_s.get("surgery", 0.0) * per,
        "sw.self_s": self_s.get("sw", 0.0) * per,
        "actions.self_s": self_s.get("actions", 0.0) * per,
        "configurations.self_s": self_s.get("configurations", 0.0) * per,
        "scenarios.self_s": self_s.get("scenarios", 0.0) * per,
        "reports.render_s": tracer.inclusive("Report.render") * scale * per,
        "reports.bytes": count("reports.bytes"),
        "cli.self_s": self_s.get("cli", 0.0) * per,
        "words.constructed": count("words.constructed"),
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    request_s = sum(self_s.values())
    for layer in list(LAYERS) + [HARNESS]:
        metrics[f"{layer}.self_share"] = self_s.get(layer, 0.0) / request_s
    return metrics, raw_self_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where to write the traced run's spans")
    args = parser.parse_args(argv)

    cli, scenarios = _import_program()
    stream = workloads.requests(args.workload, args.seed)
    warmup = [next(stream) for _ in range(WARMUP_REQUESTS)]
    for request in warmup:
        execute(request, cli, scenarios)

    def send(index: int, request: dict):
        return execute(request, cli, scenarios)

    result = {"workload": args.workload, "seed": args.seed, "warmup": warmup}
    if not args.trace:
        done, elapsed = run_loop(stream, send, perf_counter() + args.seconds, MIN_REQUESTS)
        result.update(untraced=done, elapsed_s=elapsed)
    else:
        untraced, elapsed = run_loop(stream, send, perf_counter() + args.seconds / 3)
        replayed = [r["request"] for r in untraced]
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_loop(replayed, lambda index, request: tracer.run_request(
                index, lambda: send(index, request)))
        finally:
            tracer.uninstall()
        leftover = installed_wrappers()
        if leftover:
            raise SystemExit(f"tracer left wrappers installed: {leftover}")
        # the untraced reference is a replay too, so both sides run warm
        reference, _ = run_loop(replayed, send)
        metrics, raw_self_s = layer_metrics(tracer, traced, reference)
        result.update(untraced=untraced + reference, traced=traced, elapsed_s=elapsed,
                      layers=metrics, layer_self_s=raw_self_s, spans=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
