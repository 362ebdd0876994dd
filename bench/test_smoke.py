"""Smoke test of the benchmark: every workload at a tiny size, both run modes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def test_workloads_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == bench_run.WORKLOADS


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    record = bench_run.measure(workload, 0, queries=3, warmup=1, cold_starts=2, trace=trace)
    result = record["result"]
    assert record["failed_frac"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["passed_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "design-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
