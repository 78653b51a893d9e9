"""Layer tracer: wraps dpsurgery's public functions from outside the package.

``Tracer.install()`` rebinds each listed function in its home module and in
every loaded ``dpsurgery`` module that imported it by name (for example
``verify.coset_enumerate``), and listed methods on their classes.  A
function-local import such as ``from .coset import coset_enumerate`` inside
``scenarios._surgery_lines`` reads the home module at call time, so it sees
the wrapper too.  ``uninstall()`` puts every original back.

Each wrapped call records a span (layer, function, start, end, parent span,
request id) in memory; ``write`` saves them once the run is over.  A span's
self time is its duration minus the durations of its direct children, and a
layer's self time is the sum over its spans.  The benchmark opens one
``harness`` span per request, so every moment of a request belongs to a
layer; ``run.py`` checks that the self times add up to the request
latencies that the worker's loop times on its own.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

MARK = "__perfbench_wrapped__"

# layer -> (module, public functions); "Class.method" names a method
LAYERS = {
    "cli": ("cli", ["main", "build_parser"]),
    "scenarios": ("scenarios", ["run_builtin", "run_scenario_text", "run_scenario",
                                "nodal_configuration", "rational_configuration",
                                "spheres_configuration", "tori_configuration"]),
    "reports": ("reports", ["Report.render"]),
    "verify": ("verify", ["verify_abelian_isomorphism", "certify_abelian",
                          "nonabelian_quotient_witness"]),
    "coset": ("coset", ["coset_enumerate"]),
    "rewriting": ("rewriting", ["knuth_bendix"]),
    "presentations": ("presentations", ["simplify_presentation", "abelianization",
                                        "exponent_matrix", "parse_presentation"]),
    "snf": ("snf", ["smith_normal_form", "cokernel_invariants",
                    "element_order_in_cokernel", "determinant", "mat_mul"]),
    "alexander": ("alexander", ["alexander_polynomial", "alexander_of_braid",
                                "laurent_determinant", "normalize_alexander",
                                "knot_family", "coefficient_multiset"]),
    "knots": ("knots", ["braid_to_diagram", "wirtinger_presentation",
                        "knot_group_from_braid", "KnotGroupData.simplified"]),
    "surgery": ("surgery", ["case_presentation", "surgered_presentation",
                            "verify_group_preserved", "apply_surgery",
                            "check_case_hypothesis"]),
    "sw": ("sw", ["family_report", "distinguish", "applicability_check",
                  "knot_surgery_transform"]),
    "actions": ("actions", ["build_cover_plan", "exotic_action_certificate"]),
    "configurations": ("configurations", ["complement_h1", "spheres_presentation",
                                          "tori_presentation", "algebraic_intersection"]),
}
HARNESS = "harness"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, count = self.spans, self.stack, self._count
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, name, start, end, parent, tracer.request)
            count(name, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        """Wrap every listed function; raises if dpsurgery is not importable."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("dpsurgery")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dpsurgery" or n.startswith("dpsurgery."))]
        for layer, (module_name, names) in LAYERS.items():
            home = importlib.import_module(f"dpsurgery.{module_name}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._rebind(cls, attr, original, self._wrap(layer, name, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, original, wrapper)
        word = package.Word
        original_post_init = word.__dict__["__post_init__"]
        counts = self.counts

        def counting_post_init(self_word):
            counts["words.constructed"] += 1
            original_post_init(self_word)

        setattr(counting_post_init, MARK, original_post_init)
        self._rebind(word, "__post_init__", original_post_init, counting_post_init)

    def _rebind(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- request spans ------------------------------------------------------------

    def run_request(self, request_id: int, fn):
        """Run one request under a harness span; returns fn()'s result."""
        self.request = request_id
        wrapped = self._wrap(HARNESS, "request", fn)
        return wrapped()

    # -- counters -------------------------------------------------------------------

    def _count(self, name: str, args, kwargs, result):
        c = self.counts
        if name == "coset_enumerate":
            c["coset.calls"] += 1
            c["coset.cosets_allocated"] += result.allocated
            if result.completed:
                c["coset.completed_index"] += result.index
                c["coset.completed_allocated"] += result.allocated
            else:
                c["coset.cap_hits"] += 1
        elif name == "knuth_bendix":
            c["rewriting.calls"] += 1
            c["rewriting.rules_admitted"] += result.rules_admitted
            c["rewriting.live_rules"] += len(result.rules)
            if not result.confluent:
                c["rewriting.cap_hits"] += 1
        elif name == "simplify_presentation":
            c["presentations.tietze_calls"] += 1
            c["presentations.gens_eliminated"] += args[0].ngens - result.ngens
        elif name == "smith_normal_form":
            matrix = args[0] if args else kwargs["m"]
            c["snf.calls"] += 1
            c["snf.entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)
        elif name == "alexander_polynomial":
            c["alexander.calls"] += 1
        elif name == "laurent_determinant":
            c["alexander.matrix_dim"] += len(args[0])
        elif name == "wirtinger_presentation":
            c["knots.calls"] += 1
        elif name == "braid_to_diagram":
            c["knots.arcs"] += result.arcs
        elif name == "verify_abelian_isomorphism":
            if result.status.value == "Inconclusive":
                c["verify.inconclusive"] += 1
        elif name == "Report.render":
            c["reports.bytes"] += len(result)

    # -- summaries ------------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (layer, function) over all finished spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span is not None:
                out[(span[0], span[1])] += span[3] - span[2] - child[i]
        return out

    def inclusive(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[1] == name)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"fields": ["layer", "function", "start", "end", "parent", '
                         '"request"], "spans": [\n')
            handle.write(",\n".join(json.dumps(s) for s in self.spans if s is not None))
            handle.write("\n]}\n")


def installed_wrappers() -> list[str]:
    """Names of dpsurgery attributes that are still tracer wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dpsurgery" or name.startswith("dpsurgery.")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    if hasattr(inner, MARK):
                        found.append(f"{name}.{attr}.{member}")
    return found
