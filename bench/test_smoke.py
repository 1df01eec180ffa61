"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest bench/test_smoke.py -q

Checks that no op fails and that every metric BENCHMARK.json names is
printed, by name and unit, in the human lines and in the final JSON line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command + args, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_passes_and_prints_every_metric(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert f"{workload}  failed_share 0 " in proc.stdout

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line.split() for line in lines if line.startswith(f"{workload}  {m['name']} ")]
        assert printed and printed[0][-1] == m["unit"], m["name"]


def test_fails_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run_bench(tmp_path, "search-mixed", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
