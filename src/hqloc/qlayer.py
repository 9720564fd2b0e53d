"""Estimator-style quantum layer: scaled features in, Pauli-Z expectations out.

The layer runs the feature map followed by the trainable ansatz and measures
Z on each of the ``N_FEATURES`` qubits. One batched kernel in real arithmetic
does the work: the real and imaginary parts of the encoded rows from
:func:`encode_batch` form one real matrix, and one matrix product applies the
real ansatz matrix U of phi; probabilities are re**2 + im**2. The two-point
shift-rule Jacobian (exact for RY-generated rotations) needs no shifted
matrix: each half difference of expectations at phi +- pi/2 e_k is an
overlap of the forward state U v with a tangent that the same matrix U and
the signed permutation RY_q(pi) give (see :func:`q_gradient_batch`).
:func:`q_forward` and :func:`q_gradient` are batch-of-one wrappers. Every
entry point refuses rows that do not hold ``N_FEATURES`` features before any
product, and a layer refuses non-finite angles. Sampling belongs to an
evaluation, not to the layer: given ``shots``, :func:`q_forward_batch` runs
the same kernel and then estimates each expectation from sampled
measurements, seeded per (row, qubit) from ``seed``, the qubit and the
encoded row, so a row's estimate does not depend on the rest of its batch.
Each seed is a blake2b digest; :func:`sample_expect_z` re-keys one shared
PCG64 stream from it, so sampling builds no generator per draw. Gradients
are always exact.

The forward pass takes its ansatz matrices from a one-entry cache keyed on
the shape and bytes of phi, so a trained model builds its matrix once for
any number of fixes. The Jacobian takes its matrix from the same cache, so a
training epoch's loss forward, gradient forward and Jacobian share one
build. A write into phi in place, as an optimizer step makes, changes the
key, so no stale matrix is ever served. The cached array is read-only.

A layer may also hold a stack of S angle vectors, phi of shape (S, n_params),
as the seed-stacked training loop does: one kernel call then covers all S
ansatz matrices over the shared encoded rows, and every result gains a
leading axis of length S. Row s of a stack computes what the layer of phi[s]
computes alone. Sampling takes one layer, not a stack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# encode_batch is re-exported: callers encode here and pass the rows back in.
from .circuits import N_ANSATZ_PARAMS, N_FEATURES, ansatz_unitaries, check_features
from .circuits import encode_batch, feature_state
from .statevector import Statevector, check_integer, check_shots, sample_expect_z

# Seeds reach numpy generators, which take only non-negative integers, and the
# shot seeds pack them as int64.
MAX_SEED = 2**63 - 1

# Z eigenvalue of every basis state on every qubit, shape (n, 2**n).
_Z_SIGNS = 1.0 - 2.0 * ((np.arange(2**N_FEATURES) >> np.arange(N_FEATURES)[:, None]) & 1)

# RY_q(pi) is a signed permutation: amplitude b of its output is amplitude
# b ^ 2**q of its input, negated where bit q of b is clear. Shape (2**n, n)
# for the index, (2**n, n, 1) for the sign, entry (b, q).
_FLIPS = np.arange(2**N_FEATURES)[:, None] ^ (1 << np.arange(N_FEATURES))
_FLIP_SIGNS = -_Z_SIGNS.T[:, :, None]


@dataclass
class QuantumLayer:
    """Trainable quantum layer: the ``N_ANSATZ_PARAMS`` ansatz angles ``phi``.

    ``phi`` of shape (S, N_ANSATZ_PARAMS) makes a stack of S layers.
    """

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim not in (1, 2) or self.phi.shape[-1] != N_ANSATZ_PARAMS:
            raise ValueError(
                f"phi must be a flat vector of {N_ANSATZ_PARAMS} angles or a stack of them, "
                f"got shape {self.phi.shape}"
            )
        if not np.isfinite(self.phi).all():
            raise ValueError(f"phi must be finite, got {self.phi.tolist()}")


def _check_rows(encoded_rows: np.ndarray) -> None:
    """Raise ValueError unless ``encoded_rows`` are encoded rows of ``N_FEATURES`` features."""
    shape = np.shape(encoded_rows)
    if len(shape) != 2 or shape[1] != 2**N_FEATURES:
        raise ValueError(
            f"expected encoded rows of {N_FEATURES} features ({2**N_FEATURES} amplitudes "
            f"each), got shape {shape}"
        )


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an integer in [0, MAX_SEED]."""
    check_integer("seed", seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2**63 - 1], got {seed}")


def _seed_prefixes(base_seed: int) -> list[bytes]:
    """The int64 bytes of (base_seed, qubit) that open each qubit's shot seed."""
    check_seed(base_seed)
    return [np.asarray([base_seed, q], dtype=np.int64).tobytes() for q in range(N_FEATURES)]


def _shot_seed(prefix: bytes, row_bytes: bytes) -> int:
    # Stable across runs: Python's hash() is salted, so hash the bytes instead.
    return int.from_bytes(hashlib.blake2b(prefix + row_bytes, digest_size=8).digest(), "little")


# (key, matrices) of the last phi the forward pass saw; the key is phi's dtype,
# shape and bytes, so an in-place write into phi misses. The pair is replaced
# as one tuple, so a reader never matches one phi's key to another's matrices.
_forward_cache: tuple[tuple, np.ndarray] | None = None


def _forward_unitaries(phi: np.ndarray) -> np.ndarray:
    """``ansatz_unitaries(phi)``, built once while phi stays the same; read-only."""
    global _forward_cache
    key = (phi.dtype.str, phi.shape, phi.tobytes())
    cached = _forward_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    unitaries = ansatz_unitaries(phi)
    unitaries.flags.writeable = False  # shared by every forward on this phi
    _forward_cache = key, unitaries
    return unitaries


def _sweep(unitaries: np.ndarray, encoded_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of the (m, 2**n, 2**n) ansatz matrices on every encoded row, in real arithmetic.

    Returns the Z expectations, shape (m, n_rows, N_FEATURES), and the final
    amplitudes, shape (m, 2**n, 2, n_rows): real parts at [:, :, 0].
    """
    dim = unitaries.shape[-1]
    parts = np.concatenate([encoded_rows.real, encoded_rows.imag]).T  # (2**n, 2 * n_rows)
    final = (unitaries.reshape(-1, dim) @ parts).reshape(len(unitaries), dim, 2, -1)
    squares = final * final
    probabilities = squares[:, :, 0] + squares[:, :, 1]
    return np.clip((_Z_SIGNS @ probabilities).transpose(0, 2, 1), -1.0, 1.0), final


def q_forward_batch(
    layer: QuantumLayer, encoded_rows: np.ndarray, shots: int | None = None, seed: int = 0
) -> np.ndarray:
    """Expectations for every encoded row, shape (batch, N_FEATURES); a stack's are (S, batch, ...).

    Exact when ``shots`` is None. Otherwise each entry is a
    :func:`sample_expect_z` estimate from ``shots`` shots, seeded from
    ``seed``, the qubit and the bytes of that encoded row; ``seed`` must
    pass :func:`check_seed`, the rule every seeded entry point applies, and
    ``shots`` must pass :func:`check_shots`, even for zero rows.
    """
    _check_rows(encoded_rows)
    if shots is not None:
        check_shots(shots)
        if layer.phi.ndim == 2:
            raise ValueError("shot sampling takes one layer, not a stack")
    expectations, final = _sweep(_forward_unitaries(layer.phi), encoded_rows)
    if shots is None:
        return expectations.reshape(*layer.phi.shape[:-1], *expectations.shape[1:])
    prefixes = _seed_prefixes(seed)
    amplitudes = (final[0, :, 0] + 1j * final[0, :, 1]).T
    out = np.empty((len(amplitudes), N_FEATURES))
    for i, (row, final_row) in enumerate(zip(encoded_rows, amplitudes)):
        state = Statevector(N_FEATURES, final_row)
        row_bytes = row.tobytes()
        for q, prefix in enumerate(prefixes):
            out[i, q] = sample_expect_z(state, q, shots, _shot_seed(prefix, row_bytes))
    return out


def _flipped(amplitudes: np.ndarray) -> np.ndarray:
    """RY_q(pi) on amplitudes (..., 2**n, m) for every qubit q: shape (..., 2**n, n, m)."""
    return _FLIP_SIGNS * amplitudes[..., _FLIPS, :]


def q_gradient_batch(layer: QuantumLayer, encoded_rows: np.ndarray) -> np.ndarray:
    """Shift-rule gradients for every row, shape (batch, N_FEATURES, n_params).

    Entry (i, j, k) = (E_j(phi + pi/2 e_k) - E_j(phi - pi/2 e_k)) / 2 on row i,
    the exact derivative dE_j/dphi_k; a stack's gradients have shape
    (S, batch, N_FEATURES, n_params).

    Angle k enters U = U(phi) through one RY, and RY(theta +- pi/2) =
    RY(theta) (I +- A) / sqrt(2) with A = RY(pi). So the entry equals
    <psi| Z_j |t_k> (real part) for psi = U v, with tangent t_k = U A_q v when
    angle k is the first-layer RY on qubit q and t_k = A_q psi when it is the
    second-layer one. No shifted matrix is built: U comes from the forward
    cache, and one product applies it to v and the three A_q v.
    """
    _check_rows(encoded_rows)
    unitaries = _forward_unitaries(layer.phi)
    n_stack, dim, n_rows = len(unitaries), unitaries.shape[-1], len(encoded_rows)
    parts = np.concatenate([encoded_rows.real, encoded_rows.imag]).T  # (2**n, 2 * n_rows)
    inputs = np.concatenate([parts[:, None], _flipped(parts)], axis=1)  # v, then each A_q v
    final = (unitaries.reshape(-1, dim) @ inputs.reshape(dim, -1)).reshape(
        n_stack, dim, 1 + N_FEATURES, -1
    )
    psi = final[:, :, :1]
    tangents = np.concatenate([final[:, :, 1:], _flipped(psi[:, :, 0])], axis=2)
    overlaps = psi * tangents
    overlaps = overlaps[..., :n_rows] + overlaps[..., n_rows:]  # real and imaginary parts
    grads = (_Z_SIGNS @ overlaps.reshape(n_stack, dim, -1)).reshape(
        n_stack, N_FEATURES, N_ANSATZ_PARAMS, n_rows
    )
    return grads.transpose(0, 3, 1, 2).reshape(*layer.phi.shape[:-1], n_rows, *grads.shape[1:3])


def q_forward(layer: QuantumLayer, x, shots: int | None = None, seed: int = 0) -> np.ndarray:
    """Z expectations of one feature vector scaled to [0, 1]; see :func:`q_forward_batch`."""
    rows = feature_state(check_features(x, N_FEATURES)).amplitudes[None]
    return q_forward_batch(layer, rows, shots, seed)[0]


def q_gradient(layer: QuantumLayer, x) -> np.ndarray:
    """Shift-rule gradient matrix for one feature vector, shape (N_FEATURES, n_params)."""
    rows = feature_state(check_features(x, N_FEATURES)).amplitudes[None]
    return q_gradient_batch(layer, rows)[0]
