"""Byte-identical output across numpy's CPU dispatch levels and BLAS thread counts.

numpy picks a SIMD loop per ufunc at import, by what the CPU supports, and
some loops round differently from one level to the next. Each run here is a
fresh process with ``NPY_DISABLE_CPU_FEATURES`` and the BLAS thread count set
in its environment only, so it sees what another CPU would see. Every run
makes the same `hqloc gen-synthetic` files, the same short `hqloc compare`
cell, the same `hqloc train --test` model and the same exact and sampled
`hqloc eval` of it, and all of them must be equal bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqloc

SRC = str(Path(hqloc.__file__).resolve().parents[1])

REPORT_DISPATCH = (
    "import json, numpy as np\n"
    "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
    "print(json.dumps([name for name in __cpu_dispatch__ if __cpu_features__.get(name)]))\n"
)


def _child_env(disabled, blas_threads):
    paths = [SRC, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(blas_threads)
    return env


def _run(args, env):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _dispatch_levels():
    """Targets to disable: none, all but the lowest this CPU runs, then all (numpy's baseline)."""
    if int(np.__version__.split(".")[0]) < 2:
        return [[]]
    running = json.loads(_run(["-c", REPORT_DISPATCH], _child_env([], 1)))
    levels = []
    for disabled in ([], running[1:], running):
        if disabled not in levels:
            levels.append(disabled)
    return levels


def _outputs(out_dir: Path, disabled, blas_threads) -> dict[str, bytes]:
    env = _child_env(disabled, blas_threads)
    running = json.loads(_run(["-c", REPORT_DISPATCH], env))
    assert not set(running) & set(disabled), "the child still runs a disabled target"
    cli = ["-m", "hqloc.cli"]
    for name, n, seed in (("train.csv", 40, 1), ("test.csv", 20, 2)):
        _run([*cli, "gen-synthetic", "--room", "6x5.5", "--n", str(n), "--sigma", "2",
              "--seed", str(seed), "--out", str(out_dir / name)], env)
    train, test = str(out_dir / "train.csv"), str(out_dir / "test.csv")
    _run([*cli, "compare", "--train", train, "--test", test, "--has-header", "--scenario", "Sc-1",
          "--technology", "WiFi", "--seeds", "1", "2", "--epochs", "20", "--shots", "4096",
          "--out-dir", str(out_dir / "cmp")], env)
    _run([*cli, "train", "--data", train, "--test", test, "--has-header", "--epochs", "20",
          "--seed", "1", "--out-dir", str(out_dir / "model")], env)
    model = str(out_dir / "model" / "model.params")
    for name, shots in (("exact", []), ("shots", ["--shots", "4096", "--seed", "3"])):
        _run([*cli, "eval", "--model-file", model, "--data", test, "--has-header", *shots,
              "--out-dir", str(out_dir / name)], env)
    paths = ["train.csv", "test.csv", "cmp/comparison.csv", "model/model.params",
             "model/loss_trace.csv", "exact/eval_rmse.csv", "shots/eval_rmse.csv"]
    return {path: (out_dir / path).read_bytes() for path in paths}


def test_gen_synthetic_and_compare_are_the_same_bytes_at_every_dispatch_level(tmp_path):
    levels = _dispatch_levels()
    # Full dispatch at 1 and 2 BLAS threads, then each lower level at one of them.
    runs = [([], 1), ([], 2)] + [(level, 2 - k % 2) for k, level in enumerate(levels[1:])]
    reference = None
    for k, (disabled, threads) in enumerate(runs):
        out_dir = tmp_path / f"run{k}"
        out_dir.mkdir()
        outputs = _outputs(out_dir, disabled, threads)
        if reference is None:
            reference = outputs
            assert b"hqnn_shots" in outputs["cmp/comparison.csv"]
            assert outputs["exact/eval_rmse.csv"] != outputs["shots/eval_rmse.csv"]
            continue
        for name, content in outputs.items():
            assert content == reference[name], (
                f"{name} differs with {disabled or 'no'} targets disabled at {threads} BLAS threads"
            )
