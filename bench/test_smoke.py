"""Smoke test of the benchmark itself: every workload on a few items.

    python3 -m pytest bench/test_smoke.py -q

It checks that each run prints every metric BENCHMARK.json names, with its
unit, and that every output oracle passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_metrics_and_oracles(workload, trace, section):
    result = run.measure(workload, seed=7, seconds=0.05, trace=trace, min_items=5)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_times_are_scaled_by_the_nearby_probes():
    times = [2.0, 2.0, 4.0, 4.0]
    probes = [1.0, 1.0, 2.0, 2.0]
    scaled = run.at_reference_speed(times, probes, window=0)
    assert scaled == pytest.approx([2.0 * run.REFERENCE_S] * 4)
    # A lone slow probe does not move the median of its neighbourhood.
    assert run.at_reference_speed([1.0] * 5, [1.0, 1.0, 9.0, 1.0, 1.0], window=1) == pytest.approx([run.REFERENCE_S] * 5)


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify", "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_ITEMS


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
