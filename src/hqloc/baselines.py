"""Comparison methods: KNN regression and quantum-fingerprint matching.

The fingerprint baseline shares the hybrid model's feature-map encoding: every
training row is encoded once into its amplitudes, and a query is matched to
the entry with the highest state fidelity |<psi_i|psi>|^2. It has no
trainable parameters. Fidelity is computed classically from the amplitudes;
the swap-test circuit that measures it on a device is the reference
:func:`hqloc.reference.swap_test_fidelity`. Both predictors take one query
(d,) or a batch (m, d), so a test matrix is one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import check_features, check_finite, encode_batch
from .statevector import check_integer


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
    """Encoded fingerprint entries: features, coordinates, cached encoded amplitudes."""

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
    psi = encode_batch(x).reshape(*x.shape[:-1], db.states.shape[1])
    # One matrix-vector product per query sums as a single query's does.
    return np.abs((db.states.conj() @ psi[..., None])[..., 0]) ** 2


def fingerprint_predict(db: FingerprintDb, x) -> np.ndarray:
    """Coordinates of each query's max-fidelity entry; ties go to the lower index."""
    return db.coords[np.argmax(fingerprint_fidelities(db, x), axis=-1)]
