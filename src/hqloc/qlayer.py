"""Estimator-style quantum layer: scaled features in, Pauli-Z expectations out.

The layer runs the feature map followed by the trainable ansatz and measures
one Z observable per listed qubit. One batched kernel does the work: encoded
rows from :func:`encode_batch` are multiplied by the ansatz matrix of phi for
the forward pass, and by the matrices of the shifted angle vectors
phi +- pi/2 e_k for the two-point shift-rule Jacobian, which is exact for
RY-generated rotations. :func:`q_forward` and :func:`q_gradient` are
batch-of-one wrappers. With ``shots`` set, :func:`q_forward_batch` runs the
same kernel and then estimates each expectation from sampled measurements,
seeded per (row, observable) from the layer seed, the qubit and the encoded
row, so a row's estimate does not depend on the rest of its batch
(evaluation mode only; training requires exact expectations).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# encode_batch is re-exported: callers encode here and pass the rows back in.
from .circuits import N_ANSATZ_PARAMS, N_FEATURES, ansatz_unitaries, encode_batch, feature_state
from .statevector import Statevector, sample_expect_z

SHIFT = np.pi / 2.0


@dataclass
class QuantumLayer:
    """Trainable quantum layer with one Z observable per entry of ``observables``.

    ``phi`` holds the ``N_ANSATZ_PARAMS`` ansatz angles and ``observables``
    distinct qubits of the ``N_FEATURES``-qubit register. ``shots=None`` gives
    exact deterministic expectations. With shots set, a per-(input,
    observable) seed is derived from ``seed`` so repeated forward passes are
    reproducible while samples stay decorrelated across inputs.
    """

    phi: np.ndarray
    observables: tuple[int, ...] = (0, 1, 2)
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (N_ANSATZ_PARAMS,):
            raise ValueError(
                f"phi must be a flat vector of {N_ANSATZ_PARAMS} angles, "
                f"got shape {self.phi.shape}"
            )
        observables = tuple(self.observables)
        qubits = all(isinstance(q, (int, np.integer)) and 0 <= q < N_FEATURES for q in observables)
        if not observables or not qubits or len(set(observables)) != len(observables):
            raise ValueError(
                f"observables must be distinct qubits in [0, {N_FEATURES}), "
                f"got {self.observables!r}"
            )
        self.observables = tuple(int(q) for q in observables)
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


def _shot_seed(base_seed: int, qubit: int, encoded_row: np.ndarray) -> int:
    # Stable across runs: Python's hash() is salted, so hash the bytes instead.
    payload = np.asarray([base_seed, qubit], dtype=np.int64).tobytes() + encoded_row.tobytes()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _final_rows(phis: np.ndarray, encoded_rows: np.ndarray) -> np.ndarray:
    """Amplitudes after the ansatz of each angle row: shape (n_phis, n_rows, 2**n)."""
    return np.einsum("skj,nj->snk", ansatz_unitaries(phis), encoded_rows)


def _expectations(final: np.ndarray, observables: tuple[int, ...]) -> np.ndarray:
    """Z expectations over the last axis of ``final``, one column per observable."""
    idx = np.arange(final.shape[-1])
    signs = np.stack([1.0 - 2.0 * ((idx >> q) & 1) for q in observables], axis=1)
    return np.clip(np.abs(final) ** 2 @ signs, -1.0, 1.0)


def q_forward_batch(layer: QuantumLayer, encoded_rows: np.ndarray) -> np.ndarray:
    """Expectations for every encoded row, shape (batch, n_observables).

    Exact when ``layer.shots`` is None. Otherwise each entry is a
    :func:`sample_expect_z` estimate seeded from ``layer.seed``, the qubit and
    the bytes of that encoded row.
    """
    final = _final_rows(layer.phi, encoded_rows)[0]
    if layer.shots is None:
        return _expectations(final, layer.observables)
    out = np.empty((len(final), len(layer.observables)))
    for i, (row, amplitudes) in enumerate(zip(encoded_rows, final)):
        state = Statevector(N_FEATURES, amplitudes)
        for j, q in enumerate(layer.observables):
            out[i, j] = sample_expect_z(state, q, layer.shots, _shot_seed(layer.seed, q, row))
    return out


def q_gradient_batch(layer: QuantumLayer, encoded_rows: np.ndarray) -> np.ndarray:
    """Shift-rule gradients for every row, shape (batch, n_observables, n_params).

    Entry (i, j, k) = (E_j(phi + pi/2 e_k) - E_j(phi - pi/2 e_k)) / 2 on row i,
    the exact derivative dE_j/dphi_k. All shifted ansatz matrices act on the
    rows in one contraction.
    """
    if layer.shots is not None:
        raise ValueError("gradients require exact expectations; unset shots")
    n_params = layer.phi.size
    steps = SHIFT * np.eye(n_params)
    shifted = np.vstack([layer.phi + steps, layer.phi - steps])
    e = _expectations(_final_rows(shifted, encoded_rows), layer.observables)
    return 0.5 * (e[:n_params] - e[n_params:]).transpose(1, 2, 0)


def q_forward(layer: QuantumLayer, x) -> np.ndarray:
    """Vector of Z expectations, one per observable, each in [-1, 1].

    ``x`` is a feature vector already scaled to [0, 1].
    """
    return q_forward_batch(layer, feature_state(x).amplitudes[None])[0]


def q_gradient(layer: QuantumLayer, x) -> np.ndarray:
    """Shift-rule gradient matrix for one feature vector, shape (n_observables, n_params)."""
    return q_gradient_batch(layer, feature_state(x).amplitudes[None])[0]
