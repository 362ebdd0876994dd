"""One fresh workload process; prints one JSON line. Started by ``run.py``.

Modes:

* ``--queries N [--warmup K] [--trace]``: generate N timed and K warm-up
  queries, run the warm-up, then time each of the N queries. Checks run
  between queries, off the clock. With ``--trace`` the same N queries then
  run again with spans on, and the spans are written to ``--spans PATH``.
* ``--cold-start``: time ``import contest_forge`` plus the first timed query.

``contest_forge`` is imported only after the queries are generated, so a
cold start times the import and nothing else of the benchmark's own.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from time import perf_counter, perf_counter_ns

import queries


def _timed_loop(workload: str, qs: list[dict], tracer=None) -> tuple[list[float], list[dict]]:
    """Latency in ms of each query and the failures; checks run off the clock."""
    import workloads

    latencies, failures = [], []
    for i, query in enumerate(qs):
        if tracer is not None:
            tracer.query, tracer.enabled = i, True
        answer, problems = None, []
        t0 = perf_counter_ns()
        try:
            answer = workloads.run(workload, query)
        except Exception as exc:  # a raising query is a failed query, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.enabled = False
        latencies.append((t1 - t0) / 1e6)
        if not problems:
            try:
                problems = workloads.check(workload, query, answer)
            except Exception as exc:
                problems = [f"check {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"query": i, "problems": problems})
    return latencies, failures


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(args) -> dict:
    timed = queries.generate(args.workload, args.seed, args.queries)
    warm = queries.generate(args.workload, args.seed, args.warmup, stream="warmup")
    _, warm_failures = _timed_loop(args.workload, warm)
    gc.collect()
    latencies, failures = _timed_loop(args.workload, timed)
    out = {
        "latencies_ms": latencies,
        "failures": failures,
        "warmup_failures": len(warm_failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        gc.collect()
        traced, traced_failures = _timed_loop(args.workload, timed, tracer)
        out["traced_latencies_ms"] = traced
        out["traced_failures"] = traced_failures
        out["layers"] = tracer.summarize(sum(traced))
        out["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    return out


def cold_start(args) -> dict:
    query = queries.generate(args.workload, args.seed, 1)[0]
    t0 = perf_counter()
    import workloads

    try:
        answer = workloads.run(args.workload, query)
    except Exception as exc:
        return {"setup_s": perf_counter() - t0, "problems": [f"{type(exc).__name__}: {exc}"]}
    elapsed = perf_counter() - t0
    return {"setup_s": elapsed, "problems": workloads.check(args.workload, query, answer)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--queries", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--cold-start", action="store_true")
    args = parser.parse_args(argv)
    result = cold_start(args) if args.cold_start else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
