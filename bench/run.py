"""Benchmark of contest_forge: three closed-loop designer workloads.

    python3 bench/run.py --workload design-desk --seed 1 --seconds 15 --trace 0

Each run starts a fresh worker process (one caller, one workload, BLAS and
OpenMP pinned to one thread) that replays a fixed, seeded list of queries
through the public API and checks every answer. With ``--trace 0`` it then
times several cold starts for ``setup_s`` and prints the end-to-end metrics;
with ``--trace 1`` the worker replays the same list a second time with spans
around every public function and the run prints the per-layer metrics
instead. The last line of stdout is one JSON object; the full record, with
host metadata and per-query latencies, goes to ``.bench_out/``.

The query count is ``--seconds`` times the workload's nominal rate, so a run
does a fixed amount of work: a faster program finishes sooner, and its
metrics stay comparable with the parent's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# queries per second at the commit that defined the benchmark, on a 2-core
# x86-64 host with Python 3.11, numpy 2.4 and scipy 1.17
NOMINAL_RATE = {"design-desk": 90.0, "scale-tables": 21.0, "hetero-experiments": 11.0}
WORKLOADS = tuple(NOMINAL_RATE)
WARMUP_SECONDS = 1.0
# p90 needs at least ten samples beyond it
MIN_QUERIES = 110
# cold starts per run; the first is discarded and setup_s is the median of the rest
COLD_STARTS = 6
HELD_OUT_OFFSET = 1_000_003
WORKER_TIMEOUT_S = 150
COLD_TIMEOUT_S = 30
IMPORTS = {
    "numpy": "numpy",
    "scipy_special": "scipy.special",
    "scipy_stats": "scipy.stats",
    "contest_forge": "contest_forge",
}


END_TO_END_UNITS = {
    "queries_per_s": "query/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    # 1 - failed_frac: the contract wants end-to-end metrics that are never 0
    "passed_frac": "fraction",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list[str], timeout: float):
    """Run a child interpreter to completion; subprocess.run kills it on timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            env=_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _worker(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    return json.loads(_python(args, timeout).stdout.strip().splitlines()[-1])


def _import_ms() -> dict[str, float]:
    """Import time of each heavy module in turn, from one cold interpreter.

    Each figure is the time its import adds after the ones before it, so
    ``contest_forge`` is the package's own share. ``-X importtime`` is not
    used because scipy loads ``special`` and ``stats`` through a lazy
    ``__getattr__`` that the import-time log does not list on its own.
    """
    steps = "; ".join(
        f"import {module}; t.append(time.perf_counter())" for module in IMPORTS.values()
    )
    code = f"import time; t = [time.perf_counter()]; {steps}; print(t)"
    marks = json.loads(_python(["-c", code], COLD_TIMEOUT_S).stdout)
    return {key: (b - a) * 1000.0 for key, a, b in zip(IMPORTS, marks, marks[1:])}


def _git_commit() -> str | None:
    """HEAD of the repository holding this file, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "contest_forge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def per_layer_units() -> dict[str, str]:
    sys.path.insert(0, str(HERE))
    try:
        from tracing import metric_names
    finally:
        sys.path.remove(str(HERE))
    units = dict(metric_names())
    units.update({f"setup.import_ms.{key}": "ms" for key in IMPORTS})
    units.update({"trace.overhead_frac": "fraction", "trace.spans": "count"})
    return units


def measure(
    workload: str, seed: int, queries: int, warmup: int, cold_starts: int, trace: bool
) -> dict:
    """One run; returns the record written to disk, whose ``result`` is printed."""
    if not (SRC / "contest_forge" / "__init__.py").is_file():
        raise BenchError(f"no contest_forge sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    extra = ["--queries", str(queries), "--warmup", str(warmup)]
    if trace:
        extra += ["--trace", "--spans", str(OUT / f"{stem}-spans.json")]
        cold_starts = 0

    def cold(count: int) -> list[dict]:
        return [
            _worker(workload, seed, "--cold-start", timeout=COLD_TIMEOUT_S)
            for _ in range(count)
        ]

    # half the cold starts before the timed worker and half after, so that
    # setup_s does not rest on one stretch of the host's load
    colds = cold((cold_starts + 1) // 2)
    work = _worker(workload, seed, *extra, timeout=WORKER_TIMEOUT_S)
    colds += cold(cold_starts // 2)

    latencies = work["latencies_ms"]
    deciles = _deciles(latencies)
    failed_queries = {f["query"] for f in work["failures"]}
    qps = len(latencies) / (sum(latencies) / 1000.0)
    record = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": seed + HELD_OUT_OFFSET,
        "queries": queries,
        "warmup_queries": warmup,
        "samples": len(latencies),
        "samples_beyond_p90": sum(x > deciles[8] for x in latencies),
        "host": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **work["versions"],
            "threads_env": {k: v for k, v in _env().items() if k.endswith("_NUM_THREADS")},
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "failures": work["failures"][:20],
        "warmup_failures": work["warmup_failures"],
        "latencies_ms": latencies,
    }
    if trace:
        failed_queries |= {f["query"] for f in work["traced_failures"]}
        traced = work["traced_latencies_ms"]
        metrics = dict(work["layers"])
        metrics.update({f"setup.import_ms.{k}": v for k, v in _import_ms().items()})
        metrics["trace.overhead_frac"] = 1.0 - sum(latencies) / sum(traced)
        metrics["trace.spans"] = work["spans"]
        record["traced_queries_per_s"] = len(traced) / (sum(traced) / 1000.0)
        units = per_layer_units()
    else:
        failed_queries |= {0 for cold in colds if cold["problems"]}
        metrics = {
            "queries_per_s": qps,
            "query_p50_ms": deciles[4],
            "query_p90_ms": deciles[8],
            "setup_s": statistics.median(c["setup_s"] for c in colds[1:]),
            "peak_rss_mb": work["peak_rss_mb"],
            "passed_frac": 1.0 - len(failed_queries) / len(latencies),
        }
        record["cold_starts_s"] = [c["setup_s"] for c in colds]
        units = END_TO_END_UNITS
    record["queries_per_s"] = qps
    record["failed_frac"] = len(failed_queries) / len(latencies)
    result = {
        "correct": not failed_queries and not work["warmup_failures"],
        "attempted": len(latencies),
        "failed": len(failed_queries),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rate = NOMINAL_RATE[args.workload]
    queries = max(MIN_QUERIES, round(args.seconds * rate))
    try:
        record = measure(
            args.workload,
            args.seed,
            queries,
            math.ceil(WARMUP_SECONDS * rate),
            COLD_STARTS,
            bool(args.trace),
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = record["result"]
    print(
        f"{args.workload} seed {args.seed}: {record['samples']} timed queries "
        f"({record['samples_beyond_p90']} beyond p90), {result['failed']} failed, "
        f"record in {OUT.name}/"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
