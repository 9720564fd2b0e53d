"""The circuit layout: the data-encoding feature map and the trainable ansatz.

The gates are data: :func:`zz_feature_map` and :func:`real_amplitudes` list
them. The quantum layer propagates its Pauli paths through the ansatz's gate
list at import, and only the simulator in :mod:`hqloc.reference` applies
them, to check the closed forms. :func:`encode_batch` is the closed form of
the feature map that the layer runs on. After the H layer the feature map is
diagonal, so every encoded amplitude is a pure phase: a row's 2n - 1 gate
angles times a cached 0/1 table of which basis states each phase gate
reaches, summed over the gates in circuit order.

Qubit 0 is the least significant bit of the basis index. RY(t) =
exp(-i t Y/2), RZ(t) = exp(-i t Z/2), P(l) = diag(1, e^{il}). Features are
expected to be pre-scaled to [0, 1] by the data pipeline before encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 20  # the widest register the reference simulates: 2**n amplitudes

GATE_KINDS = ("H", "RY", "RZ", "P", "CX")


@dataclass(frozen=True)
class Gate:
    """One concrete gate: ``kind`` in GATE_KINDS, qubit indices, angle in radians.

    ``control`` is set for CX only; ``angle`` for RY/RZ/P only.
    """

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None


def h(target: int) -> Gate:
    return Gate("H", target)


def ry(angle: float, target: int) -> Gate:
    return Gate("RY", target, angle=angle)


def rz(angle: float, target: int) -> Gate:
    return Gate("RZ", target, angle=angle)


def p(angle: float, target: int) -> Gate:
    return Gate("P", target, angle=angle)


def cx(control: int, target: int) -> Gate:
    return Gate("CX", target, control=control)


N_FEATURES = 3
N_ANSATZ_PARAMS = 6
# The widest encoding: the swap test compares two states on 2n + 1 qubits.
MAX_ENCODED_FEATURES = (MAX_QUBITS - 1) // 2


def zz_feature_map(x) -> list[Gate]:
    """Angle-encoding feature map with linearly entangled pair phases, one repetition.

    Layout: H on every qubit, phase ``2 * x[q]`` on each qubit q, then for each
    neighbouring pair (i, i+1) the sandwich CX / phase
    ``2 * (pi - x[i]) * (pi - x[i+1])`` on i+1 / CX. One qubit per feature.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"feature map needs a nonempty feature vector, got shape {x.shape}")
    n = x.size
    gates = [h(q) for q in range(n)]
    gates += [p(2.0 * float(x[q]), q) for q in range(n)]
    for i in range(n - 1):
        angle = 2.0 * (math.pi - float(x[i])) * (math.pi - float(x[i + 1]))
        gates += [cx(i, i + 1), p(angle, i + 1), cx(i, i + 1)]
    return gates


def real_amplitudes(n_qubits: int, phi) -> list[Gate]:
    """Trainable ansatz: RY layer, linear CX chain, RY layer; one repetition.

    Uses 2 * n_qubits parameters and keeps amplitudes real for real inputs
    (RY and CX both have real matrices).
    """
    if n_qubits < 1:
        raise ValueError("ansatz needs at least one qubit")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (2 * n_qubits,):
        raise ValueError(f"expected {2 * n_qubits} parameters, got shape {phi.shape}")
    gates = [ry(float(phi[q]), q) for q in range(n_qubits)]
    gates += [cx(i, i + 1) for i in range(n_qubits - 1)]
    gates += [ry(float(phi[n_qubits + q]), q) for q in range(n_qubits)]
    return gates


@lru_cache(maxsize=32)
def _phase_terms(n_qubits: int) -> np.ndarray:
    """(2n - 1, 2**n) 0/1 floats: the basis bits, then the XORs of neighbouring bits.

    Row t says which basis states the t-th phase gate of :func:`zz_feature_map`
    shifts: qubit t's bit for t < n, then the parity of pair (i, i + 1).
    """
    bits = (np.arange(2**n_qubits) >> np.arange(n_qubits)[:, None]) & 1
    terms = np.concatenate([bits, bits[:-1] ^ bits[1:]]).astype(float)
    terms.flags.writeable = False  # shared by every caller through the cache
    return terms


def check_features(x, width: int) -> np.ndarray:
    """``x`` as one float query (width,) or a batch (m, width); refuses any other shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"expected queries of {width} features, got shape {x.shape}")
    return x


def check_finite(name: str, X: np.ndarray) -> None:
    """Raise ValueError naming the first row of ``X`` that holds NaN or inf."""
    if not np.isfinite(X).all():
        bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
        raise ValueError(
            f"{name} must be finite, got NaN or inf in {bad.size} row(s), first row {bad[0]}"
        )


def encode_batch(X) -> np.ndarray:
    """Encoded feature states of the rows of ``X``, shape (n_rows, 2**n_features).

    Closed form of :func:`zz_feature_map` applied to |0...0>: amplitude k is
    ``2**(-n/2) * exp(i * (sum_q 2 x_q b_q + sum_i 2 (pi - x_i)(pi - x_{i+1})
    (b_i XOR b_{i+1})))`` where b_q is bit q of k. The rows' 2n - 1 phase-gate
    angles, the n single-qubit ones then the n - 1 pair ones, multiply the
    cached (2n - 1, 2**n) table of :func:`_phase_terms` into one C-ordered
    (2n - 1, n_rows, 2**n) product, and one ``np.add.reduce`` sums it over
    the gate axis. That axis is the outermost, not the contiguous one, so
    numpy adds the terms one after another in that order, whatever the batch
    size: a row encodes to the same bytes alone or in any batch, and
    :func:`feature_state` equals its ``encode_batch`` row. The product takes
    (2n - 1) * 2**n floats per row, 40 at n = 3 and 8704 at the widest,
    n = ``MAX_ENCODED_FEATURES`` = 9. Raises ValueError for wider rows, and for
    NaN or infinite features, which would otherwise encode to NaN amplitudes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or not 1 <= X.shape[1] <= MAX_ENCODED_FEATURES:
        raise ValueError(
            f"expected a batch of 1 to {MAX_ENCODED_FEATURES} features per row, "
            f"got shape {X.shape}"
        )
    check_finite("features", X)
    n = X.shape[1]
    gaps = math.pi - X.T
    angles = np.concatenate([2.0 * X.T, 2.0 * gaps[:-1] * gaps[1:]])
    terms = _phase_terms(n)
    # One contiguous (n_rows, 2**n) slice per gate, so the sum runs over whole
    # slices and a large batch costs no more than a loop over the gates.
    products = np.empty((len(terms), len(X), terms.shape[1]))
    phase = np.add.reduce(np.multiply(angles[:, :, None], terms[:, None], out=products), axis=0)
    del products  # freed before the complex arrays are made
    return np.exp(1j * phase) / math.sqrt(2.0**n)


def feature_state(x) -> np.ndarray:
    """The encoded amplitudes of one feature vector, bit for bit its :func:`encode_batch` row."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected one feature vector, got shape {x.shape}")
    return encode_batch(x[None])[0]

