"""The benchmark's four workloads: set-up, one operation, and correctness gates.

Every input comes from the workload seed: the scenario stand-ins, the held-out
survey of fixes, the CSV files and the model initialisation. Gates compare the
package's outputs with :mod:`oracle`, an independent float64 implementation
of the same model, so they hold for any seed. Each operation is checked right
after it is timed and nothing is kept per operation, so memory does not grow
with the length of the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import oracle
from hqloc import cli, data, model_io, train_eval

SCENARIO, TECHNOLOGY = "Sc-1", "WiFi"
EPOCHS = 300
ETA = 0.001
SHOTS = 4096
HELD_OUT = 2000  # fixes in the held-out survey (locate) and CSV (eval_shots)
COMPARE_SEEDS = (1, 2, 3)
# The oracle agrees with the package to ~1e-15 after 300 Adam epochs. A
# float64 kernel that sums in another order drifts by a few ulps per step, far
# below 1e-9; a change in the computed model moves results by far more.
RTOL = 1e-9
ATOL_M = 1e-9
SHOT_BOUND_M = 0.1  # |RMSE(shots) - RMSE(exact)|, acceptance criterion 9
EXACT_METHODS = ("classical_nn", "knn", "quantum_fingerprint", "hqnn_exact")


def _raw(samples) -> np.ndarray:
    return np.array([[*s.rssi, *s.position] for s in samples], dtype=float)


def _close(value, ref, rtol=RTOL) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _clamped_share(train_raw, test_raw) -> float:
    lo, hi = train_raw[:, :3].min(axis=0), train_raw[:, :3].max(axis=0)
    return float(np.mean(np.any((test_raw[:, :3] < lo) | (test_raw[:, :3] > hi), axis=1)))


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """One closed-loop client: ``op(i)`` is the i-th operation of the run."""

    name = ""
    op_label = ""  # what one operation is
    op_is_fix = False  # whether one operation is one position fix
    min_ops = 1
    ops_per_pass = 1  # a traced run ends on a whole pass, so per-op counts repeat
    run_gates = 0  # run-level gates counted in ``attempted`` beside the operations

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Inputs and state the operations need; timed as ``setup_s``."""
        raise NotImplementedError

    def reference(self) -> None:
        """Oracle values for the gates; computed after set-up, outside any timing."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        """Gate on one operation; ``result`` is None when the call raised."""
        raise NotImplementedError

    def finish(self) -> int:
        """Number of failed run-level gates."""
        return 0

    def clamped_share(self) -> float:
        return 0.0

    def headline(self, durations) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end figures, by the names users know them."""
        raise NotImplementedError


def _standin(seed, n_test=None):
    _, train_samples, test_samples = data.gen_scenario_standin(
        SCENARIO, TECHNOLOGY, seed=seed, n_test=n_test
    )
    return train_samples, test_samples


def _train_config(seed):
    return train_eval.TrainConfig(epochs=EPOCHS, eta=ETA, seed=seed)


class Train(Workload):
    name = "train"
    op_label = "one 300-epoch training"

    def setup(self):
        train_samples, _ = _standin(self.seed)
        scaler = data.fit_scaler(train_samples)
        self.X, self.Z = data.transform_samples(scaler, train_samples)
        self.raw = _raw(train_samples)

    def reference(self):
        X = oracle.scale(self.raw[:, :3], self.raw[:, :3])
        self.ref_mse = oracle.train(oracle.Model.hybrid(self.seed), X, self.raw[:, 3:], EPOCHS, ETA)

    def op(self, i):
        model = train_eval.init_hybrid_model(self.seed)
        return train_eval.train(model, self.X, self.Z, _train_config(self.seed)).final_train_mse

    def check(self, i, result):
        return _close(result, self.ref_mse)

    def headline(self, durations):
        p50 = float(np.median(durations))
        return [("epochs_per_s", EPOCHS / p50, "1/s"), ("training_s_p50", p50, "s")]


class _HeldOut(Workload):
    """Shared set-up: train on the Sc-1 WiFi stand-in, save and reload the model."""

    def setup(self):
        train_samples, test_samples = _standin(self.seed, n_test=HELD_OUT)
        scaler = data.fit_scaler(train_samples)
        X, Z = data.transform_samples(scaler, train_samples)
        model = train_eval.init_hybrid_model(self.seed)
        train_eval.train(model, X, Z, _train_config(self.seed))
        self.model_path = os.path.join(self.work_dir, "model.params")
        model_io.save_model(self.model_path, model, scaler)
        self.model, self.scaler = model_io.load_model(self.model_path)
        self.train_raw, self.test_raw = _raw(train_samples), _raw(test_samples)
        self.test_samples = test_samples

    def reference(self):
        X = oracle.scale(self.train_raw[:, :3], self.train_raw[:, :3])
        model = oracle.Model.hybrid(self.seed)
        oracle.train(model, X, self.train_raw[:, 3:], EPOCHS, ETA)
        self.ref_fixes = model.predict(oracle.scale(self.train_raw[:, :3], self.test_raw[:, :3]))

    def clamped_share(self):
        return _clamped_share(self.train_raw, self.test_raw)


class Locate(_HeldOut):
    name = "locate"
    op_label = "one fix"
    op_is_fix = True
    run_gates = 1  # RMSE of the first pass over the survey

    def setup(self):
        super().setup()
        self.survey = [s.rssi for s in self.test_samples]

    def reference(self):
        super().reference()
        self.first_pass = np.full((HELD_OUT, 2), np.nan)

    def op(self, i):
        x = data.transform(self.scaler, self.survey[i % HELD_OUT])
        return train_eval.hqnn_forward(self.model, x)

    def check(self, i, result):
        if result is None:
            return False
        fix = np.asarray(result, dtype=float)
        if fix.shape != (2,) or not np.all(np.isfinite(fix)):
            return False
        if i < HELD_OUT:
            self.first_pass[i] = fix
        return float(np.abs(fix - self.ref_fixes[i % HELD_OUT]).max()) <= ATOL_M

    def finish(self):
        done = ~np.isnan(self.first_pass[:, 0])
        truth = self.test_raw[done, 3:]
        ok = done.any() and _close(oracle.rmse(self.first_pass[done], truth),
                                   oracle.rmse(self.ref_fixes[done], truth))
        return 0 if ok else 1

    def headline(self, durations):
        ms = np.asarray(durations) * 1e3
        return [
            ("fixes_per_s", len(ms) / (ms.sum() / 1e3), "1/s"),
            ("fix_ms_p50", float(np.percentile(ms, 50)), "ms"),
            ("fix_ms_p99", float(np.percentile(ms, 99)), "ms"),
            ("fix_samples", len(ms), "count"),
        ]


class EvalShots(_HeldOut):
    name = "eval_shots"
    op_label = f"one `hqloc eval --shots {SHOTS}` call over {HELD_OUT} fixes"

    def setup(self):
        super().setup()
        self.csv_path = os.path.join(self.work_dir, "held_out.csv")
        data.save_csv(self.test_samples, self.csv_path)
        self.out_dir = os.path.join(self.work_dir, "eval")

    def reference(self):
        super().reference()
        self.exact_rmse = oracle.rmse(self.ref_fixes, self.test_raw[:, 3:])
        self.first = None

    def op(self, i):
        rc = _quiet_cli([
            "eval", "--model-file", self.model_path, "--data", self.csv_path, "--has-header",
            "--shots", str(SHOTS), "--seed", str(self.seed), "--out-dir", self.out_dir,
        ])
        if rc != 0:
            return None
        with open(os.path.join(self.out_dir, "eval_rmse.csv")) as fh:
            return float(list(csv.reader(fh))[1][0])

    def check(self, i, result):
        if result is None or not math.isfinite(result):
            return False
        if self.first is None:
            self.first = result
        return abs(result - self.exact_rmse) < SHOT_BOUND_M and result == self.first

    def headline(self, durations):
        p50 = float(np.median(durations))
        return [("fixes_per_s", HELD_OUT / p50, "1/s"), ("eval_call_s_p50", p50, "s")]


class CompareGrid(Workload):
    name = "compare_grid"
    op_label = "one `hqloc compare` cell (the grid is 9 cells)"
    min_ops = 10  # the whole grid, then its first cell again for byte identity
    ops_per_pass = 9  # traced runs repeat every cell untraced, so one grid suffices

    def setup(self):
        self.cells = []
        for scenario in data.SCENARIOS:
            for technology in data.TECHNOLOGIES:
                _, train_samples, test_samples = data.gen_scenario_standin(
                    scenario, technology, seed=self.seed
                )
                stem = os.path.join(self.work_dir, f"{scenario}_{technology}")
                data.save_csv(train_samples, stem + "_train.csv")
                data.save_csv(test_samples, stem + "_test.csv")
                self.cells.append((scenario, technology, stem,
                                   _raw(train_samples), _raw(test_samples)))

    def reference(self):
        self.refs = [oracle.compare_cell(c[3], c[4], COMPARE_SEEDS, epochs=EPOCHS)
                     for c in self.cells]
        self.first: dict[int, bytes] = {}

    def op(self, i):
        scenario, technology, stem, _, _ = self.cells[i % len(self.cells)]
        rc = _quiet_cli([
            "compare", "--train", stem + "_train.csv", "--test", stem + "_test.csv",
            "--has-header", "--scenario", scenario, "--technology", technology,
            "--seeds", *map(str, COMPARE_SEEDS), "--epochs", str(EPOCHS), "--lr", str(ETA),
            "--shots", str(SHOTS), "--out-dir", stem + "_out",
        ])
        if rc != 0:
            return None
        with open(os.path.join(stem + "_out", "comparison.csv"), "rb") as fh:
            return fh.read()

    def check(self, i, result):
        k = i % len(self.cells)
        if result is None or self.first.setdefault(k, result) != result:
            return False
        rows = list(csv.DictReader(io.StringIO(result.decode())))
        scenario, technology = self.cells[k][:2]
        for row in rows:
            if row["scenario"] != scenario or row["technology"] != technology:
                return False
            if row["rmse_m"] == "" or not math.isfinite(float(row["rmse_m"])):
                return False  # a null RMSE is a method that raised
            if row["method"] in EXACT_METHODS and not _close(
                float(row["rmse_m"]), self.refs[k][(row["method"], row["seed"])]
            ):
                return False
        return {row["method"] for row in rows} >= {*EXACT_METHODS, "hqnn_shots"}

    def clamped_share(self):
        clamped = sum(_clamped_share(c[3], c[4]) * len(c[4]) for c in self.cells)
        return float(clamped / sum(len(c[4]) for c in self.cells))

    def headline(self, durations):
        grid = float(np.sum(durations[: len(self.cells)]))
        return [("grid_s", grid, "s"), ("cells_per_s", len(durations) / float(np.sum(durations)), "1/s")]


WORKLOADS = {w.name: w for w in (Train, Locate, EvalShots, CompareGrid)}
