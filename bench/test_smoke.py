"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args,
         "--scale", "smoke", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "5",
                        "--trace", str(trace))
    assert code == 0
    result, summary = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert summary["unresolved_metrics"] == []
    assert summary["digest_match"] is True
    if not trace:
        assert result["metrics"]["ops_ok_frac"]["value"] == 1.0


def test_injected_check_failure_exits_nonzero():
    code, lines = bench("--workload", "cli_exact", "--seed", "5",
                        "--trace", "0", "--inject-failure")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_without_sources_exits_nonzero_and_prints_nothing():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        code, lines = bench("--workload", WORKLOADS[0], "--seed", "5",
                            "--trace", "0", root=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0
    assert lines == []
