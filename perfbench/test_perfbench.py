"""Checks on the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench`` (about two
minutes). ``compare_grid`` is left out: one traced grid takes over a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, seed=1, seconds=1):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["train", "locate", "eval_shots"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, trace=1)) for _ in range(2))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}

    m = counts
    if workload == "train":
        assert m["qlayer.sweeps_per_epoch"] == 14
        assert m["workload.epochs"] == 300
    if workload == "locate":
        assert m["circuits.feature_state.calls_per_fix"] == 1
        assert m["statevector.sample_expect_z.calls"] == 0
    if workload == "eval_shots":
        assert m["statevector.sample_expect_z.calls"] == 3 * m["workload.fixes"]
        assert m["statevector.sample_expect_z.shots_per_fix"] == 3 * 4096


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(run("train", trace=0))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_second_seed_passes_every_gate():
    for workload in ("train", "locate", "eval_shots"):
        result_of(run(workload, trace=0, seed=2))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("train", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
