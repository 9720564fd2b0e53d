"""Comparison methods: KNN regression and quantum-fingerprint matching.

The fingerprint baseline shares the hybrid model's feature-map encoding: every
training row is encoded once into a statevector, and a query is matched to the
entry with the highest state fidelity |<psi_i|psi>|^2. It has no trainable
parameters. Fidelity is computed classically from the statevectors; a
swap-test circuit with one ancilla is provided to validate that shortcut.
Both predictors take one query (d,) or a batch (m, d), so a test matrix is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import check_features, check_finite, encode_batch
from .statevector import (
    MAX_QUBITS,
    Statevector,
    apply_gates,
    check_integer,
    cx,
    expect_z,
    h,
    p,
)


@dataclass(frozen=True)
class KnnModel:
    """k-nearest-neighbours regression over scaled RSSI features."""

    k: int
    features: np.ndarray  # (n, d) scaled features
    targets: np.ndarray  # (n, 2) coordinates in meters


def fit_knn(features, targets, k: int = 3) -> KnnModel:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.ndim != 2 or len(features) != len(targets):
        raise ValueError("features and targets must be matching 2-D arrays")
    if len(features) == 0:
        raise ValueError("knn model needs at least one training row")
    check_finite("features", features)
    check_finite("targets", targets)
    check_integer("k", k)
    if not 1 <= k <= len(features):
        raise ValueError(f"k must be in [1, {len(features)}], got {k}")
    return KnnModel(k, features, targets)


def knn_predict(model: KnnModel, x) -> np.ndarray:
    """Mean target of the k rows closest to each query; ties go to the lower row index."""
    x = check_features(x, model.features.shape[1])
    check_finite("features", x)
    dists = np.sum((model.features - x[..., None, :]) ** 2, axis=-1)
    order = np.argsort(dists, axis=-1, kind="stable")
    return model.targets[order[..., : model.k]].mean(axis=-2)


@dataclass(frozen=True)
class FingerprintDb:
    """Encoded fingerprint entries: features, coordinates, cached statevectors."""

    features: np.ndarray  # (n, d) scaled features
    coords: np.ndarray  # (n, 2) meters
    states: np.ndarray  # (n, 2**d) complex amplitudes


def build_fingerprint_db(features, coords) -> FingerprintDb:
    features = np.asarray(features, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if features.ndim != 2 or coords.ndim != 2 or len(features) != len(coords):
        raise ValueError("features and coords must be matching 2-D arrays")
    if len(features) == 0:
        raise ValueError("fingerprint database needs at least one entry")
    check_finite("coords", coords)
    states = encode_batch(features)
    return FingerprintDb(features, coords, states)


def fingerprint_fidelities(db: FingerprintDb, x) -> np.ndarray:
    """Fidelity of each encoded query against every cached entry, shape (..., n)."""
    x = check_features(x, db.features.shape[1])
    psi = encode_batch(x).reshape(*x.shape[:-1], -1)
    # One matrix-vector product per query sums as a single query's does.
    return np.abs((db.states.conj() @ psi[..., None])[..., 0]) ** 2


def fingerprint_predict(db: FingerprintDb, x) -> np.ndarray:
    """Coordinates of each query's max-fidelity entry; ties go to the lower index."""
    return db.coords[np.argmax(fingerprint_fidelities(db, x), axis=-1)]


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2 computed directly from the amplitudes."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states must have the same qubit count")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _t(q):
    return p(math.pi / 4.0, q)


def _tdg(q):
    return p(-math.pi / 4.0, q)


def _toffoli_gates(c1: int, c2: int, target: int) -> list:
    # Textbook decomposition into H, T, Tdg and six CNOTs.
    return [
        h(target),
        cx(c2, target), _tdg(target),
        cx(c1, target), _t(target),
        cx(c2, target), _tdg(target),
        cx(c1, target), _t(c2), _t(target),
        h(target),
        cx(c1, c2), _t(c1), _tdg(c2), cx(c1, c2),
    ]


def _cswap_gates(control: int, x: int, y: int) -> list:
    return [cx(y, x), *_toffoli_gates(control, x, y), cx(y, x)]


def swap_test_fidelity(a: Statevector, b: Statevector) -> float:
    """Fidelity via the ancilla swap-test circuit on a 2n+1 qubit register.

    Exact-expectation variant: returns <Z> on the ancilla after
    H - controlled-SWAPs - H, which equals |<a|b>|^2. Mathematically identical
    to :func:`fidelity`, just far more expensive.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("states must have the same qubit count")
    n = a.n_qubits
    if 2 * n + 1 > MAX_QUBITS:
        raise ValueError(f"swap test needs {2 * n + 1} qubits, cap is {MAX_QUBITS}")
    ancilla = 2 * n
    # Qubits 0..n-1 hold a, n..2n-1 hold b, the ancilla is the top qubit;
    # with qubit 0 as the least significant bit the joint amplitudes are
    # kron(ancilla, kron(b, a)).
    anc0 = np.array([1.0, 0.0], dtype=complex)
    joint = np.kron(anc0, np.kron(b.amplitudes, a.amplitudes))
    gates = [h(ancilla)]
    for i in range(n):
        gates += _cswap_gates(ancilla, i, n + i)
    gates.append(h(ancilla))
    final = apply_gates(Statevector(2 * n + 1, joint), gates)
    return expect_z(final, ancilla)
