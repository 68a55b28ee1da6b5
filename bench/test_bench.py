"""Quick check of the benchmark itself (about ten seconds).

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from fairsic import RankFunctionSet, generate_channel, validate_rank_axioms  # noqa: E402


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


@pytest.mark.parametrize("users", [2, 4, 10])
def test_perturbed_table_breaks_only_submodularity_by_the_excess(users):
    channel = generate_channel("tabulated-submodular", users, 5)
    report = validate_rank_axioms(
        RankFunctionSet.for_channel(workloads.perturb_submodularity(channel, 2))
    )
    broken = report.receivers[1]
    assert broken.normalization_violation == 0.0
    assert broken.monotonicity_violation == 0.0
    assert broken.submodularity_violation == pytest.approx(workloads.PERTURB_EXCESS, rel=1e-6)
    assert [r.passed(report.tol) for r in report.receivers].count(False) == 1


def test_benchmark_json_names_what_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


def test_smoke_run_is_correct_on_every_workload():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOADS:
        for metric in run.PER_LAYER_UNITS:
            assert f"{workload}.traced.{metric}" in result["metrics"]
    dominant = [line for line in proc.stdout.splitlines() if line.startswith("dominant layer")]
    assert len(dominant) == len(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
