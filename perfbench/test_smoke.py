"""Smoke test of the benchmark harness, so it cannot rot: every workload at
minimal sizes (--smoke), untraced and traced, must print the result line
with exactly the metrics BENCHMARK.json names and pass its output checks.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(workload, trace, section):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0
    assert "check_fail_ratio" in proc.stdout

    record = json.loads(
        (ROOT / ".bench_out" / f"result-{workload}-seed1-trace{trace}.json").read_text()
    )
    for key in ("seed", "sizes", "nproc", "versions", "git_commit", "estimates", "passes"):
        assert key in record
    assert set(record["versions"]) == {"python", "numpy", "scipy"}
    for est in record["estimates"]:
        assert {"point", "estimate", "stderr", "trials"} <= set(est)


def test_fails_without_the_sources(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark must not run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
