"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench

Every workload runs plain and traced for a few units on seed 1, passes
its output checks and prints every metric that BENCHMARK.json names.
The traced runs must reproduce the recorded count fingerprint exactly.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import HERE, ROOT, WORKLOAD_NAMES


def declared(key: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[key]


def bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_runs_checks_and_prints_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    metrics = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    report = "\n".join(lines[:-1])
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"  {m['name']} " in report
    if trace:
        assert "count fingerprint over units" in report
        assert "matches the record" in report, report


def test_exits_nonzero_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        proc = bench(bare, WORKLOAD_NAMES[0], 0)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
