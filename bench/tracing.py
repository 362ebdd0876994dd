"""Spans around the public functions of ``contest_forge``, taken from outside.

``Tracer.install`` wraps every public function in ``__all__`` of the six
layer modules and rebinds the wrapper under that name in every
``contest_forge`` module namespace that holds the original, so calls between
modules (``homogeneous.expected_prize``) are caught as well as calls from the
benchmark. Private helpers are not wrapped: their time counts toward the
public caller. Spans and counts stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter_ns

LAYERS = ("numerics", "contest", "distributions", "homogeneous", "compstat", "heterogeneous")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _scan_width(args, kwargs, result):
    """j_max of the design scan; 0 when a closed-form regime returns at once."""
    n, budget, c = (_arg(args, kwargs, i, k) for i, k in enumerate(("n", "budget", "c")))
    if c <= budget / n or c >= budget:
        return 0
    return min(n, int(math.floor(budget / c + 1e-12)))


# (module, function) -> (per-call statistic, how to read it from a call)
STATS = {
    ("numerics", "bisect_decreasing"): ("iters", lambda a, k, r: r.iterations),
    ("numerics", "find_positive_root_sign_change"): ("iters", lambda a, k, r: r.iterations),
    ("contest", "expected_prize_curve"): (
        "points",
        lambda a, k, r: len(_arg(a, k, 1, "ps")),
    ),
    ("homogeneous", "optimal_contest"): ("scan_width", _scan_width),
    ("compstat", "breakpoints"): ("rows", lambda a, k, r: len(r.entries)),
    ("heterogeneous", "equilibrium"): ("rounds", lambda a, k, r: r.iterations),
    ("heterogeneous", "mc_objective"): (
        "draws",
        lambda a, k, r: _arg(a, k, 4, "replicas") * _arg(a, k, 2, "n"),
    ),
}

# the functions reported one by one; every public function counts toward
# its module's totals
REPORTED = (
    ("numerics", "bisect_decreasing"),
    ("numerics", "find_positive_root_sign_change"),
    ("contest", "expected_prize"),
    ("contest", "expected_prize_curve"),
    ("contest", "make_simple_contest"),
    ("distributions", "discretize"),
    ("homogeneous", "participation_rate"),
    ("homogeneous", "optimal_contest"),
    ("homogeneous", "c_star"),
    ("compstat", "breakpoints"),
    ("compstat", "q_polynomial"),
    ("compstat", "classify_by_breakpoints"),
    ("compstat", "poisson_limit"),
    ("heterogeneous", "equilibrium"),
    ("heterogeneous", "best_response"),
    ("heterogeneous", "is_sub_equilibrium"),
    ("heterogeneous", "fosd_check"),
    ("heterogeneous", "mc_objective"),
    ("heterogeneous", "wta_approx_experiment"),
)
PRIZE_EVALS = ("homogeneous.participation_rate", "contest.expected_prize")
# self time leaves out the spans of wrapped callees; total time keeps them
PER_FUNCTION = (("calls", "count"), ("self_ms", "ms"), ("total_ms", "ms"))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric ``summarize`` returns, with its unit."""
    names = []
    for module, fn in REPORTED:
        base = f"{module}.{fn}"
        names += [(f"{base}.{stat}", unit) for stat, unit in PER_FUNCTION]
        if (module, fn) in STATS:
            names.append((f"{base}.{STATS[module, fn][0]}_per_call", "count"))
    names.append((f"{PRIZE_EVALS[0]}.prize_evals_per_call", "count"))
    for module in LAYERS:
        names += [(f"{module}.self_ms", "ms"), (f"{module}.self_share", "fraction")]
    return names


class Tracer:
    """Span recorder; spans are ``[name, start_ns, end_ns, parent, query, stat]``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.enabled = False

    def _wrap(self, name: str, fn, stat):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [idx, 0, 0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if stat is not None:
                span[5] = stat(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "contest_forge" or key.startswith("contest_forge.")
        ]
        for module in LAYERS:
            mod = sys.modules[f"contest_forge.{module}"]
            for fn_name in mod.__all__:
                fn = getattr(mod, fn_name)
                if not inspect.isfunction(fn):
                    continue
                stat = STATS.get((module, fn_name), (None, None))[1]
                wrapper = self._wrap(f"{module}.{fn_name}", fn, stat)
                for ns in namespaces:
                    if getattr(ns, fn_name, None) is fn:
                        setattr(ns, fn_name, wrapper)

    def summarize(self, wall_ms: float) -> dict[str, float]:
        """Per-layer metrics; ``wall_ms`` is the summed latency of the traced queries."""
        count = len(self.names)
        calls = [0] * count
        self_ns = [0] * count
        total_ns = [0] * count
        child_ns = [0] * len(self.spans)
        stat_sum = [0] * count
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_ns[span[0]] += span[2] - span[1] - child_ns[i]
            total_ns[span[0]] += span[2] - span[1]
            if span[5] is not None:
                stat_sum[span[0]] += span[5]
        index = {name: i for i, name in enumerate(self.names)}

        def per_call(total, n):
            return total / n if n else 0.0

        out = {}
        for module, fn in REPORTED:
            base = f"{module}.{fn}"
            i = index[base]
            out[f"{base}.calls"] = calls[i]
            out[f"{base}.self_ms"] = self_ns[i] / 1e6
            out[f"{base}.total_ms"] = total_ns[i] / 1e6
            if (module, fn) in STATS:
                out[f"{base}.{STATS[module, fn][0]}_per_call"] = per_call(stat_sum[i], calls[i])
        outer, inner = index[PRIZE_EVALS[0]], index[PRIZE_EVALS[1]]
        evals = 0
        for span in self.spans:
            if span[0] == inner:
                parent = span[3]
                while parent >= 0 and self.spans[parent][0] != outer:
                    parent = self.spans[parent][3]
                evals += parent >= 0
        out[f"{PRIZE_EVALS[0]}.prize_evals_per_call"] = per_call(evals, calls[outer])
        for module in LAYERS:
            self_ms = sum(
                self_ns[i] for i, name in enumerate(self.names) if name.startswith(module + ".")
            ) / 1e6
            out[f"{module}.self_ms"] = self_ms
            out[f"{module}.self_share"] = self_ms / wall_ms if wall_ms > 0 else 0.0
        return out

    def write(self, path) -> None:
        """Spans as ``[name, start_ns, end_ns, parent, query, stat]``, times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
