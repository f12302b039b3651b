"""Smoke test of the benchmark: every workload runs at its tiny size, passes
its correctness checks, and reports exactly the metrics BENCHMARK.json
names, with their units.  Timings are not asserted."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.01",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    assert any(line.startswith("fail_frac 0.0 fraction") for line in lines)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "presets", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
