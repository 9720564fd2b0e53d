"""Acceptance suite: one test per release criterion, one line each under -v.

Checks 1-6, 9 and 10 are fully self-contained. Checks 7 and 8 compare
against the real scenario datasets, which are not bundled with the package:
place the per-cell CSVs (canonical schema, header optional) in
``data/scenarios/`` or point ``HQLOC_DATA_DIR`` at them, named
``<scenario>_<technology>_train.csv`` / ``<scenario>_<technology>_test.csv``
(for example ``Sc-1_Bluetooth_train.csv``). Without those files the two
dataset checks report SKIPPED; everything else must pass.
"""

import math
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from hqloc.baselines import (
    build_fingerprint_db,
    fingerprint_fidelities,
    fingerprint_predict,
    fit_knn,
    knn_predict,
)
from hqloc.circuits import cx, feature_state, ry
from hqloc.cli import main as cli_main
from hqloc.data import (
    SCENARIOS,
    TECHNOLOGIES,
    fit_scaler,
    gen_scenario_standin,
    load_table,
    transform_samples,
)
from hqloc.optim import adam_step, init_adam
from hqloc.qlayer import encode_batch, pauli_features, q_forward_batch
from hqloc.reference import (
    REFERENCE_RMSE_M,
    apply_gate,
    apply_gates,
    expect_z,
    h,
    p,
    rz,
    zero_state,
)
from hqloc.train_eval import (
    TrainConfig,
    _model_ops,
    evaluate_rmse,
    hqnn_forward,
    hqnn_forward_batch,
    init_hybrid_model,
    train,
)

from oracles import circuit_matrix, expect_z_oracle, fidelity_oracle, knn_oracle

# Reference per-cell test RMSE (m) for the exact-expectation hybrid model on
# the real datasets, and the tolerance for reproducing them.
REFERENCE_HQNN_RMSE_M = {
    cell: methods["hqnn_simulator"] for cell, methods in REFERENCE_RMSE_M.items()
}
REPRODUCTION_TOL_M = 0.35
REPRODUCTION_SEEDS = (1, 2, 3, 4, 5)

DATA_DIR = Path(os.environ.get(
    "HQLOC_DATA_DIR", Path(__file__).resolve().parent.parent / "data" / "scenarios"
))
DATASETS_MISSING = (
    f"real scenario datasets not found under {DATA_DIR}; provide "
    "<scenario>_<technology>_train.csv/_test.csv or set HQLOC_DATA_DIR"
)


def _load_cell_csv(path):
    # Header is optional in the convention; detect it from the first line.
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        [float(v) for v in first.strip().split(",")]
        has_header = False
    except ValueError:
        has_header = True
    return load_table(path, has_header=has_header)


def _real_cell(scenario, technology):
    train_path = DATA_DIR / f"{scenario}_{technology}_train.csv"
    test_path = DATA_DIR / f"{scenario}_{technology}_test.csv"
    if not (train_path.exists() and test_path.exists()):
        return None
    return _load_cell_csv(train_path), _load_cell_csv(test_path)


def _all_real_cells():
    cells = {}
    for scenario in SCENARIOS:
        for technology in TECHNOLOGIES:
            loaded = _real_cell(scenario, technology)
            if loaded is None:
                return None
            cells[(scenario, technology)] = loaded
    return cells


@lru_cache(maxsize=None)
def _trained_cell_rmses(scenario, technology):
    """Best-of-seeds exact hybrid RMSE and fingerprint RMSE on one real cell."""
    train_samples, test_samples = _real_cell(scenario, technology)
    scaler = fit_scaler(train_samples)
    X_train, Z_train = transform_samples(scaler, train_samples)
    X_test, Z_test = transform_samples(scaler, test_samples)
    hqnn = []
    for seed in REPRODUCTION_SEEDS:
        model = init_hybrid_model(seed=seed)
        train(model, X_train, Z_train, TrainConfig(seed=seed))
        hqnn.append(evaluate_rmse(lambda X: hqnn_forward_batch(model, X), X_test, Z_test))
    db = build_fingerprint_db(X_train, Z_train)
    qfp = evaluate_rmse(
        lambda X: np.array([fingerprint_predict(db, x) for x in X]), X_test, Z_test
    )
    return min(hqnn), qfp


def random_circuit(rng, n_qubits, n_gates):
    kinds = ["H", "RY", "RZ", "P"] + (["CX"] if n_qubits > 1 else [])
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "CX":
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(cx(int(control), int(target)))
        else:
            target = int(rng.integers(n_qubits))
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            gates.append({"H": h(target), "RY": ry(angle, target),
                          "RZ": rz(angle, target), "P": p(angle, target)}[kind])
    return gates


def inverse_gates(gates):
    inverted = []
    for gate in reversed(gates):
        if gate.kind == "H":
            inverted.append(h(gate.target))
        elif gate.kind == "CX":
            inverted.append(cx(gate.control, gate.target))
        else:
            ctor = {"RY": ry, "RZ": rz, "P": p}[gate.kind]
            inverted.append(ctor(-gate.angle, gate.target))
    return inverted


def _hidden_kink_gap(model, X):
    """Smallest |pre-activation| of the ReLU layer over a batch."""
    layer0 = model.head.layers[0]
    U = q_forward_batch(model.qlayer, pauli_features(encode_batch(X)))
    return float(np.min(np.abs(U @ layer0.weight.T + layer0.bias)))


def test_criterion_01_hybrid_gradient_matches_finite_differences():
    # Full 200-parameter gradient vs central differences at h=1e-4, within
    # 1e-4 elementwise, on 20 random (model, 4-sample batch) draws, < 1 min.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    accepted = 0
    while accepted < 20:
        model = init_hybrid_model(seed=int(rng.integers(10_000)))
        X = rng.uniform(0.0, 1.0, size=(4, 3))
        Z = rng.uniform(0.0, 6.0, size=(4, 2))
        # Central differences are a valid oracle only where the loss is
        # smooth across the +-h window. A +-1e-4 parameter step moves a
        # hidden pre-activation by at most ~1.3e-4, so redraw whenever a
        # ReLU unit sits within 5e-4 of its kink for some batch sample.
        if _hidden_kink_gap(model, X) < 5e-4:
            continue
        accepted += 1

        def batch_loss(vec):
            probe = init_hybrid_model(seed=0)
            probe.params[:] = vec
            preds = np.array([hqnn_forward(probe, x) for x in X])
            return float(np.mean(np.sum((preds - Z) ** 2, axis=1)))

        analytic = _model_ops(model, X, Z)[1](model)[1]  # the training pass's gradient
        theta = model.params.copy()
        numeric = np.empty_like(theta)
        for k in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[k] += 1e-4
            down[k] -= 1e-4
            numeric[k] = (batch_loss(up) - batch_loss(down)) / 2e-4
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-4)
    assert time.perf_counter() - start < 60.0


def test_criterion_02_statevector_engine_properties():
    # 120 random circuits: unit norm (1e-12), inverse round trips (1e-12),
    # expect_z equal to the dense matrix-product oracle (1e-10).
    rng = np.random.default_rng(7)
    for trial in range(120):
        n_qubits = int(rng.integers(1, 4))
        gates = random_circuit(rng, n_qubits, 12)
        state = apply_gates(zero_state(n_qubits), gates)

        assert abs(state.norm() - 1.0) < 1e-12

        round_trip = apply_gates(state, inverse_gates(gates))
        np.testing.assert_allclose(
            round_trip.amplitudes, zero_state(n_qubits).amplitudes, rtol=0, atol=1e-12
        )

        oracle_amps = circuit_matrix(gates, n_qubits) @ zero_state(n_qubits).amplitudes
        for qubit in range(n_qubits):
            np.testing.assert_allclose(
                expect_z(state, qubit),
                expect_z_oracle(oracle_amps, qubit),
                rtol=0,
                atol=1e-10,
            )


def test_criterion_03_adam_recursion_hand_trace():
    # Constant gradient 2, defaults: after one step m=0.2, v=0.004 and the
    # bias-corrected estimates are exactly 2 and 4; after two steps m=0.38,
    # v=0.007996, corrected estimates again exactly 2 and 4.
    state = init_adam(1, eta=0.001)
    theta = np.array([0.0])
    g = np.array([2.0])
    state, theta = adam_step(state, theta, g)
    np.testing.assert_allclose(state.m, [0.2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.v, [0.004], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.m / (1 - 0.9**1), [2.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.v / (1 - 0.999**1), [4.0], rtol=0, atol=1e-12)
    state, theta = adam_step(state, theta, g)
    np.testing.assert_allclose(state.m, [0.38], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.v, [0.007996], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.m / (1 - 0.9**2), [2.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.v / (1 - 0.999**2), [4.0], rtol=0, atol=1e-12)

    # Bias-corrected first moment recovers a constant gradient at every step.
    state = init_adam(1)
    theta = np.array([1.0])
    g = np.array([-3.5])
    for step in range(1, 11):
        state, theta = adam_step(state, theta, g)
        np.testing.assert_allclose(
            state.m / (1 - 0.9**step), g, rtol=0, atol=1e-12
        )


def test_criterion_04_shift_rule_reproduces_analytic_derivative():
    # d<Z>/dtheta for RY(theta)|0> equals -sin(theta); the half-shift formula
    # must reproduce it to 1e-10 for 50 random angles.
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=50):
        plus = expect_z(apply_gate(zero_state(1), ry(theta + np.pi / 2, 0)), 0)
        minus = expect_z(apply_gate(zero_state(1), ry(theta - np.pi / 2, 0)), 0)
        grad = 0.5 * (plus - minus)
        np.testing.assert_allclose(grad, -math.sin(theta), rtol=0, atol=1e-10)


def test_criterion_05_baselines_match_brute_force_oracles():
    rng = np.random.default_rng(13)
    # KNN equals the brute-force sort oracle on 50 random instances.
    for trial in range(50):
        n = int(rng.integers(3, 25))
        feats = rng.uniform(-1.0, 1.0, size=(n, 3))
        targs = rng.uniform(0.0, 6.0, size=(n, 2))
        k = int(rng.integers(1, n + 1))
        x = rng.uniform(-1.0, 1.0, size=3)
        model = fit_knn(feats, targs, k=k)
        np.testing.assert_array_equal(knn_predict(model, x), knn_oracle(feats, targs, x, k))

    # Fingerprint argmax equals the direct inner-product oracle; fidelities
    # stay inside [0, 1] up to 1e-12.
    for trial in range(50):
        n = int(rng.integers(2, 12))
        feats = rng.uniform(0.0, 1.0, size=(n, 3))
        coords = rng.uniform(0.0, 6.0, size=(n, 2))
        db = build_fingerprint_db(feats, coords)
        x = rng.uniform(0.0, 1.0, size=3)
        psi = feature_state(x)
        oracle_fids = [fidelity_oracle(feature_state(f), psi) for f in feats]
        best = max(range(n), key=lambda i: oracle_fids[i])
        np.testing.assert_array_equal(fingerprint_predict(db, x), coords[best])
        fids = fingerprint_fidelities(db, x)
        assert np.all(fids >= -1e-12) and np.all(fids <= 1.0 + 1e-12)


def test_criterion_06_training_loss_halves_on_every_scenario():
    # Adam lr=0.001 for 300 epochs on seeds {1,2,3}: the post-training MSE
    # must drop below half the initialization MSE on every cell. Real data is
    # used when present, the synthetic stand-in otherwise. < 10 min/scenario.
    for scenario in SCENARIOS:
        scenario_start = time.perf_counter()
        for technology in TECHNOLOGIES:
            real = _real_cell(scenario, technology)
            for seed in (1, 2, 3):
                if real is not None:
                    train_samples = real[0]
                else:
                    _, train_samples, _ = gen_scenario_standin(scenario, technology, seed=seed)
                scaler = fit_scaler(train_samples)
                X, Z = transform_samples(scaler, train_samples)
                model = init_hybrid_model(seed=seed)
                report = train(model, X, Z, TrainConfig(epochs=300, eta=0.001, seed=seed))
                assert report.final_train_mse < 0.5 * report.loss_per_epoch[0], (
                    f"{scenario}/{technology} seed {seed}: "
                    f"{report.final_train_mse:.3f} vs initial {report.loss_per_epoch[0]:.3f}"
                )
        assert time.perf_counter() - scenario_start < 600.0


def test_criterion_07_test_rmse_reproduces_reference_values():
    if _all_real_cells() is None:
        pytest.skip(DATASETS_MISSING)
    misses = []
    for (scenario, technology), reference in REFERENCE_HQNN_RMSE_M.items():
        best_rmse, _ = _trained_cell_rmses(scenario, technology)
        if abs(best_rmse - reference) > REPRODUCTION_TOL_M:
            misses.append(f"{scenario}/{technology}: {best_rmse:.3f} vs {reference:.3f}")
    assert not misses, "cells outside +-0.35 m: " + "; ".join(misses)


def test_criterion_08_hqnn_orders_ahead_of_fingerprinting():
    if _all_real_cells() is None:
        pytest.skip(DATASETS_MISSING)
    wins = 0
    losses = []
    for scenario in SCENARIOS:
        for technology in TECHNOLOGIES:
            best_rmse, qfp_rmse = _trained_cell_rmses(scenario, technology)
            if best_rmse <= qfp_rmse:
                wins += 1
            else:
                losses.append(f"{scenario}/{technology}: {best_rmse:.3f} > {qfp_rmse:.3f}")
    assert wins >= 8, f"hybrid model ahead in only {wins}/9 cells: " + "; ".join(losses)


def test_criterion_09_sampled_rmse_tracks_exact_rmse():
    # |RMSE(10^5 shots) - RMSE(exact)| averaged over 5 trained seeds < 0.1 m.
    _, train_samples, test_samples = gen_scenario_standin("Sc-1", "WiFi", seed=0)
    scaler = fit_scaler(train_samples)
    X_train, Z_train = transform_samples(scaler, train_samples)
    X_test, Z_test = transform_samples(scaler, test_samples)
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        model = init_hybrid_model(seed=seed)
        train(model, X_train, Z_train, TrainConfig(seed=seed))
        exact = evaluate_rmse(lambda X: hqnn_forward_batch(model, X), X_test, Z_test)
        sampled = evaluate_rmse(
            lambda X: hqnn_forward_batch(model, X, shots=100_000, seed=seed), X_test, Z_test
        )
        gaps.append(abs(sampled - exact))
    assert float(np.mean(gaps)) < 0.1, f"mean gap {np.mean(gaps):.4f} m"


def test_criterion_10_compare_outputs_are_byte_identical(tmp_path):
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    assert cli_main(["gen-synthetic", "--room", "6x5.5", "--n", "20",
                     "--seed", "1", "--out", str(train_csv)]) == 0
    assert cli_main(["gen-synthetic", "--room", "6x5.5", "--n", "8",
                     "--seed", "2", "--out", str(test_csv)]) == 0
    tables = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_main(["compare", "--train", str(train_csv), "--test", str(test_csv),
                         "--has-header", "--seeds", "1", "2", "--epochs", "5",
                         "--shots", "256", "--out-dir", str(out_dir)])
        assert code == 0
        tables.append((out_dir / "comparison.csv").read_bytes())
    assert tables[0] == tables[1]
