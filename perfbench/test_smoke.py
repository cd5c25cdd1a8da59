"""Smoke tests of the benchmark harness at its seconds-long sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import tail  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.SHAPES))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_same_seed_gives_same_output_digest():
    digests = [
        next(line for line in smoke("batch-small", 0, seed=5).stdout.splitlines()
             if line.startswith("output_digest"))
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "batch-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 201)]
    assert tail(xs) == (190.0, "p95", 10)
    assert tail(xs[:50]) == (38.0, "p75", 12)
    assert tail(xs[:39]) == (39.0, "max", 0)
