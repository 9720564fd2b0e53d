"""Estimator-style quantum layer: scaled features in, Pauli-Z expectations out.

The layer runs the feature map followed by the trainable ansatz and measures
Z on each of the ``N_FEATURES`` qubits. Exact expectations are read in the
Heisenberg picture. The ansatz is RY and CX gates, so each Z_j conjugated
back through it, U^T Z_j U, is a sum of real Pauli strings over {I, X, Z}^n
whose coefficients are products of cos(phi_k) and sin(phi_k), one factor per
angle at most. At import the layer propagates each Z_j back through the gate
list of :func:`circuits.real_amplitudes` into a table of these paths (24 for
three qubits), which reach 20 of the 27 strings. Compiling phi gives the
coefficient matrix C, shape (n_strings, N_FEATURES), and its exact
derivatives dC, shape (n_strings, N_FEATURES * n_params), from one
gather-product over the paths and one scatter product: d/dphi_k takes
cos -> -sin and sin -> cos in the paths that carry phi_k, which equals the
two-point shift rule (exact for RY-generated rotations), and a path that does
not carry phi_k adds an exact 0. An encoded row v has the Pauli features
F_P = Re(v^dagger P v), so the exact forward is clip(F @ C) and the
shift-rule Jacobian is F @ dC; no 2**n x 2**n matrix is built.
:func:`q_forward` and :func:`q_gradient` are batch-of-one wrappers. Every
entry point refuses rows that do not hold ``N_FEATURES`` features before any
product, and a layer refuses non-finite angles.

Sampling belongs to an evaluation, not to the layer: given ``shots``,
:func:`q_forward_batch` computes the exact expectations E_j through the same
kernel and caches, then draws each estimate with :func:`sample_expect_z`.
Qubit j measures 1 with probability (1 - E_j) / 2, its exact marginal, so no
state is needed past the encoding. Each draw is seeded per (row, qubit) from
``seed``, the qubit and the encoded row, so a row's estimate does not depend
on the rest of its batch. Each seed is a blake2b digest;
:func:`sample_expect_z` re-keys one shared PCG64 stream from it, so sampling
builds no generator per draw. Gradients are always exact.

Two one-entry caches, each keyed on its array's dtype, shape and bytes, keep
the kernel's work. One holds the coefficients and derivatives of the last
phi compiled, so a trained model compiles once for any number of fixes, and
a training epoch's loss forward, gradient forward and Jacobian share one
compile. The other holds the Pauli features of the last batch, exact or
sampled, so a training run computes its rows' features once; it retains
that batch's features and its key's copy of the rows, 20 floats and 8
complex amplitudes (288 B) per row. A write into phi or the rows in place,
as an optimizer step makes, changes the key, so no stale entry is ever
served. Cached arrays are read-only.

A layer may also hold a stack of S angle vectors, phi of shape (S, n_params),
as the seed-stacked training loop does: one compile then covers all S angle
vectors, one ``np.matmul`` applies the S coefficient matrices to the shared
features, and every result gains a leading axis of length S. Row s of a
stack computes bit for bit what the layer of phi[s] computes alone. Sampling
takes one layer, not a stack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# encode_batch is re-exported: callers encode here and pass the rows back in.
from .circuits import N_ANSATZ_PARAMS, N_FEATURES, check_features, encode_batch
from .circuits import feature_state, real_amplitudes
from .statevector import check_integer, check_shots, sample_expect_z

# Seeds reach numpy generators, which take only non-negative integers, and the
# shot seeds pack them as int64.
MAX_SEED = 2**63 - 1


def _pauli_paths(gates, n_qubits: int, n_angles: int) -> list[tuple[int, int, int, int, tuple]]:
    """The Pauli paths of each Z_j conjugated back through ``gates``, applied in list order.

    Each path is (j, sign, x, z, factors): bit q of the masks x and z puts X
    or Z on qubit q, and factors[k] is 0 when the path skips angle k, 1 for
    cos(phi_k) and 2 for sin(phi_k). Each RY gate carries the index of its
    angle as its angle. Raises ValueError naming the gate when it is neither
    RY nor CX, when an RY reuses an angle, or when a path would hold Y.
    """
    paths = [(j, 1, 0, 1 << j, (0,) * n_angles) for j in range(n_qubits)]
    for gate in reversed(gates):
        conjugated = []
        for j, sign, x, z, factors in paths:
            if gate.kind == "CX":
                # X_c -> X_c X_t and Z_t -> Z_c Z_t; with no Y in or out, no sign.
                x ^= ((x >> gate.control) & 1) << gate.target
                z ^= ((z >> gate.target) & 1) << gate.control
                if x & z:
                    raise ValueError(f"{gate} turns a Pauli path into one holding Y")
                conjugated.append((j, sign, x, z, factors))
                continue
            if gate.kind != "RY":
                raise ValueError(f"cannot propagate Pauli paths through {gate}")
            bit, k = 1 << gate.target, int(gate.angle)
            if not (x | z) & bit:
                conjugated.append((j, sign, x, z, factors))
                continue
            if factors[k]:
                raise ValueError(f"{gate} reuses angle {k}")
            cos, sin = (*factors[:k], 1, *factors[k + 1 :]), (*factors[:k], 2, *factors[k + 1 :])
            # RY(t): Z -> cos t Z - sin t X, X -> cos t X + sin t Z.
            flip_sign = -sign if z & bit else sign
            conjugated += [(j, sign, x, z, cos), (j, flip_sign, x ^ bit, z ^ bit, sin)]
        paths = conjugated
    return paths


def _compile_tables(paths, n_qubits: int, n_angles: int):
    """The strings ``paths`` reach, and the gather index and scatter matrix of :func:`_compile`.

    Each string is its (x, z) masks. The gather index, shape
    (1 + n_angles, n_paths, n_angles), picks each path's factors from the
    slots [0, 1, cos phi, sin phi, -sin phi]: plane 0 for the coefficient,
    plane 1 + k for its derivative in phi_k (cos -> -sin, sin -> cos, a
    skipped angle -> 0). Scatter row p holds path p's sign in the column of
    its (string, j).
    """
    strings = sorted({(x, z) for _, _, x, z, _ in paths})
    column = {string: s for s, string in enumerate(strings)}
    codes, angle = np.array([path[4] for path in paths]), np.arange(n_angles)
    value = np.where(codes == 0, 1, 2 + angle + n_angles * (codes - 1))
    derivative = np.where(codes == 0, 0, 2 + angle + 2 * n_angles * (codes == 1))
    planes = np.eye(1 + n_angles, n_angles, -1, dtype=bool)[:, None]  # plane 1 + k differentiates k
    scatter = np.zeros((len(paths), len(strings) * n_qubits))
    for p, (j, sign, x, z, _) in enumerate(paths):
        scatter[p, column[x, z] * n_qubits + j] = sign
    return strings, np.where(planes, derivative, value), scatter


def _pauli_matrices(strings, n_qubits: int) -> np.ndarray:
    """The real Pauli strings as a (4**n, len(strings)) matrix: row a * 2**n + b holds P[a, b].

    A string with masks (x, z) maps |b> to (-1)**popcount(b & z) |b ^ x>.
    """
    x, z = np.array(strings).T[:, :, None]
    b = np.arange(2**n_qubits)
    parity = ((b & z)[..., None] >> np.arange(n_qubits)).sum(axis=-1) & 1
    matrices = np.zeros((4**n_qubits, len(strings)))
    matrices[(b ^ x) * 2**n_qubits + b, np.arange(len(strings))[:, None]] = 1 - 2 * parity
    return matrices


# Angle k enters the gate list as the number k, so each RY names its angle.
_STRINGS, _GATHER, _SCATTER = _compile_tables(
    _pauli_paths(real_amplitudes(N_FEATURES, np.arange(N_ANSATZ_PARAMS)),
                 N_FEATURES, N_ANSATZ_PARAMS),
    N_FEATURES,
    N_ANSATZ_PARAMS,
)
_PAULI_MATRICES = _pauli_matrices(_STRINGS, N_FEATURES)


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


def _compile(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C and dC of each of the m angle vectors in ``phi``, shapes (m, n_strings, n) and
    (m, n_strings, n * n_params): column j * n_params + k of dC is C's column j
    differentiated in phi_k.
    """
    phis = phi.reshape(-1, N_ANSATZ_PARAMS)
    m = len(phis)
    sin = np.sin(phis)
    slots = np.concatenate([np.zeros((m, 1)), np.ones((m, 1)), np.cos(phis), sin, -sin], axis=1)
    paths = slots[:, _GATHER].prod(axis=-1)  # (m, 1 + n_params, n_paths)
    table = (paths @ _SCATTER).reshape(m, 1 + N_ANSATZ_PARAMS, len(_STRINGS), N_FEATURES)
    coefficients = np.ascontiguousarray(table[:, 0])
    return coefficients, table[:, 1:].transpose(0, 2, 3, 1).reshape(m, len(_STRINGS), -1)


def _pauli_features(encoded_rows: np.ndarray) -> np.ndarray:
    """Re(v^dagger P v) of every encoded row v and string P the paths reach: (n_rows, n_strings)."""
    # Row i of ``parts`` is the (2**n, 2) matrix of v's real and imaginary parts, so
    # parts parts^T holds Re(conj(v_a) v_b) at (a, b).
    dim = 2**N_FEATURES
    parts = np.ascontiguousarray(encoded_rows, dtype=complex).view(float)
    parts = parts.reshape(len(encoded_rows), dim, 2)
    outer = parts @ parts.transpose(0, 2, 1)
    return outer.reshape(len(outer), dim * dim) @ _PAULI_MATRICES


# name -> (key, value) of the last array each cache saw; the key is the array's
# dtype, shape and bytes, so an in-place write misses. Each pair is replaced as
# one tuple, so a reader never matches one array's key to another's value.
_caches: dict[str, tuple] = {}


def _cached(name: str, build, array: np.ndarray):
    """``build(array)``, an array or a tuple of them, built once while ``array`` stays the same.

    The arrays built are read-only.
    """
    key = (array.dtype.str, array.shape, array.tobytes())
    entry = _caches.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    value = build(array)
    for part in value if isinstance(value, tuple) else (value,):
        part.flags.writeable = False  # shared by every later call on this array
    _caches[name] = key, value
    return value


def _exact(phi: np.ndarray, encoded_rows: np.ndarray) -> np.ndarray:
    """clip(F @ C) of each angle vector in ``phi`` on the rows: (m, n_rows, N_FEATURES)."""
    coefficients, _ = _cached("phi", _compile, phi)
    out = np.matmul(_cached("rows", _pauli_features, encoded_rows), coefficients)
    # Clip in place with two ufuncs: np.clip's wrapper costs more than the product.
    return np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out)


def q_forward_batch(
    layer: QuantumLayer, encoded_rows: np.ndarray, shots: int | None = None, seed: int = 0
) -> np.ndarray:
    """Expectations for every encoded row, shape (batch, N_FEATURES); a stack's are (S, batch, ...).

    Exact when ``shots`` is None. Otherwise entry (i, j) is a
    :func:`sample_expect_z` estimate from ``shots`` shots of the exact
    expectation E_j of row i, seeded from ``seed``, the qubit and the bytes
    of that encoded row; ``seed`` must pass :func:`check_seed`, the rule every
    seeded entry point applies, and ``shots`` must pass :func:`check_shots`,
    even for zero rows.
    """
    _check_rows(encoded_rows)
    if shots is None:
        out = _exact(layer.phi, encoded_rows)
        return out.reshape(*layer.phi.shape[:-1], *out.shape[1:])
    check_shots(shots)
    if layer.phi.ndim == 2:
        raise ValueError("shot sampling takes one layer, not a stack")
    prefixes = _seed_prefixes(seed)
    exact = _exact(layer.phi, encoded_rows)[0]
    out = np.empty_like(exact)
    for i, (row, expectations) in enumerate(zip(encoded_rows, exact.tolist())):
        row_bytes = row.tobytes()
        for q, (prefix, expectation) in enumerate(zip(prefixes, expectations)):
            seed_q = _shot_seed(prefix, row_bytes)
            out[i, q] = sample_expect_z(expectation, shots=shots, rng_seed=seed_q)
    return out


def q_gradient_batch(layer: QuantumLayer, encoded_rows: np.ndarray) -> np.ndarray:
    """Shift-rule gradients for every row, shape (batch, N_FEATURES, n_params).

    Entry (i, j, k) = (E_j(phi + pi/2 e_k) - E_j(phi - pi/2 e_k)) / 2 on row i,
    the exact derivative dE_j/dphi_k; a stack's gradients have shape
    (S, batch, N_FEATURES, n_params). It is the rows' Pauli features times
    the derivatives dC compiled with phi's coefficients, both from the
    caches the forward pass fills. Entry (i, j, 3 + k) is exactly 0 for
    k != j: the second-layer RY on qubit k commutes with Z_j, so no path of
    Z_j carries that angle.
    """
    _check_rows(encoded_rows)
    _, derivatives = _cached("phi", _compile, layer.phi)
    grads = np.matmul(_cached("rows", _pauli_features, encoded_rows), derivatives)
    return grads.reshape(*layer.phi.shape[:-1], len(encoded_rows), N_FEATURES, N_ANSATZ_PARAMS)


def q_forward(layer: QuantumLayer, x, shots: int | None = None, seed: int = 0) -> np.ndarray:
    """Z expectations of one feature vector scaled to [0, 1]; see :func:`q_forward_batch`."""
    rows = feature_state(check_features(x, N_FEATURES)).amplitudes[None]
    return q_forward_batch(layer, rows, shots, seed)[0]


def q_gradient(layer: QuantumLayer, x) -> np.ndarray:
    """Shift-rule gradient matrix for one feature vector, shape (N_FEATURES, n_params)."""
    rows = feature_state(check_features(x, N_FEATURES)).amplitudes[None]
    return q_gradient_batch(layer, rows)[0]
