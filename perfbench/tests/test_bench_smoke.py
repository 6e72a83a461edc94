"""Tiny-size runs of every workload through the benchmark's entry point."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["reach-fixed", "reach-max", "oracle", "highdim"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)

# one layer each workload must exercise, and one it must bypass
RUNS_AND_BYPASSES = {
    "reach-fixed": ("embedding.solve_s", "oracle.dp_s"),
    "reach-max": ("embedding.weight_bytes_max", "systems.chain_apply_s"),
    "oracle": ("oracle.dp_backup_calls", "embedding.fit_s"),
    "highdim": ("systems.chain_flops", "oracle.mc_s"),
}


def bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_end_to_end_metrics(workload):
    out = result(bench(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "0.2", "--trace", "0", "--tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(k, v["unit"]) for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_layers(workload):
    out = result(bench(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "0.2", "--trace", "1", "--tiny"))
    assert out["correct"] and out["failed"] == 0
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}
    assert {(k, v["unit"]) for k, v in out["metrics"].items()} == expected
    runs, bypassed = RUNS_AND_BYPASSES[workload]
    assert out["metrics"][runs]["value"] > 0
    assert out["metrics"][bypassed]["value"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "--workload", "reach-fixed", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
