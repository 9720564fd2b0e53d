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
derivatives dC, shape (n_strings, N_FEATURES * n_params), from one gather
over the paths, one product over its outer angle axis and one scatter
product: d/dphi_k takes cos -> -sin and sin -> cos in the paths that carry
phi_k, which equals the two-point shift rule (exact for RY-generated
rotations), and a path that does not carry phi_k adds an exact 0. An encoded
row v has the Pauli features F_P = Re(v^dagger P v), so the exact forward is
clip(F @ C) and the shift-rule Jacobian is F @ dC, with no 2**n x 2**n matrix.

The kernel takes F: :func:`pauli_features` is where encoded rows enter, and it
refuses rows that do not hold ``N_FEATURES`` features. :func:`q_forward_batch`
and :func:`q_gradient_batch` refuse features of any shape but (n, n_strings)
before any product. The owner of a batch computes its features once, and
:func:`q_forward` is the batch of one. A layer refuses non-finite angles.

The layer computes exact expectations only, and applies no gate. Sampling is
a later step on them, :func:`hqloc.statevector.sample_batch`, since qubit j
measures 1 with probability (1 - E_j) / 2, its exact marginal. It keys each
row once, on the seed and the row's scaled features, not on its encoded
amplitudes, whose ``np.exp`` may round differently on another CPU.

One one-entry cache, keyed on phi's dtype, shape and bytes, holds the
coefficients and derivatives of the last phi compiled, so a trained model
compiles once for any number of fixes, and a training epoch's loss forward,
gradient forward and Jacobian share one compile. An optimizer step writes
into phi in place, which changes the key, so no stale entry is ever served.
The cached arrays are read-only.

A layer may also hold a stack of S angle vectors, phi of shape (S, n_params),
as the seed-stacked training loop does: one compile then covers all S angle
vectors, one ``np.matmul`` applies the S coefficient matrices to the shared
features, and every result gains a leading axis of length S. Row s of a
stack computes bit for bit what the layer of phi[s] computes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# encode_batch is re-exported: callers encode here and pass the rows to pauli_features.
from .circuits import N_ANSATZ_PARAMS, N_FEATURES, check_features, encode_batch
from .circuits import feature_state, real_amplitudes


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

    Each string is its (x, z) masks. The gather index is angle-major, shape
    (n_angles, 1 + n_angles, n_paths): entry (k, plane, p) picks path p's
    factor for angle k from the slots [0, 1, cos phi, sin phi, -sin phi],
    in plane 0 for the coefficient and in plane 1 + i for its derivative in
    phi_i (cos -> -sin, sin -> cos, a skipped angle -> 0). Scatter row p
    holds path p's sign in the column of its (string, j).
    """
    strings = sorted({(x, z) for _, _, x, z, _ in paths})
    column = {string: s for s, string in enumerate(strings)}
    codes, angle = np.array([path[4] for path in paths]).T, np.arange(n_angles)[:, None]
    value = np.where(codes == 0, 1, 2 + angle + n_angles * (codes - 1))[:, None]
    derivative = np.where(codes == 0, 0, 2 + angle + 2 * n_angles * (codes == 1))[:, None]
    planes = np.eye(n_angles, 1 + n_angles, 1, dtype=bool)[..., None]  # plane 1 + k: d/dphi_k
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


def _compile(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C and dC of each of the m angle vectors in ``phi``, shapes (m, n_strings, n) and
    (m, n_strings, n * n_params): column j * n_params + k of dC is C's column j
    differentiated in phi_k. The slots hold one column per angle vector, so the gather of
    the angle-major table is (n_params, 1 + n_params, n_paths, m), and its product over
    the outer axis multiplies each path's factors in angle order.
    """
    # (n, m) and contiguous: the trig ufuncs run one loop for a stack and for one vector.
    n, angles = N_ANSATZ_PARAMS, np.ascontiguousarray(phi.reshape(-1, N_ANSATZ_PARAMS).T)
    slots = np.empty((2 + 3 * n, angles.shape[1]))  # rows 0, 1, cos phi, sin phi, -sin phi
    slots[0], slots[1] = 0.0, 1.0
    np.cos(angles, out=slots[2 : 2 + n])
    np.negative(np.sin(angles, out=slots[2 + n : 2 + 2 * n]), out=slots[2 + 2 * n :])
    paths = np.multiply.reduce(slots.take(_GATHER, axis=0), axis=0).transpose(2, 0, 1)
    table = (paths @ _SCATTER).reshape(len(paths), 1 + n, len(_STRINGS), N_FEATURES)
    coefficients = np.ascontiguousarray(table[:, 0])
    return coefficients, table[:, 1:].transpose(0, 2, 3, 1).reshape(len(table), len(_STRINGS), -1)


def pauli_features(encoded_rows) -> np.ndarray:
    """Re(v^dagger P v) of every encoded row v and string P the paths reach: (n_rows, n_strings).

    Raises ValueError unless ``encoded_rows`` are encoded rows of ``N_FEATURES`` features.
    """
    shape = np.shape(encoded_rows)
    if len(shape) != 2 or shape[1] != 2**N_FEATURES:
        raise ValueError(
            f"expected encoded rows of {N_FEATURES} features ({2**N_FEATURES} amplitudes "
            f"each), got shape {shape}"
        )
    # Row i of ``parts`` is the (2**n, 2) matrix of v's real and imaginary parts, so
    # parts parts^T holds Re(conj(v_a) v_b) at (a, b).
    dim = 2**N_FEATURES
    parts = np.ascontiguousarray(encoded_rows, dtype=complex).view(float)
    parts = parts.reshape(len(encoded_rows), dim, 2)
    outer = parts @ parts.transpose(0, 2, 1)
    return outer.reshape(len(outer), dim * dim) @ _PAULI_MATRICES


# (key, (C, dC)) of the last phi compiled; the key is phi's dtype, shape and
# bytes, so an in-place write misses. The pair is replaced as one tuple, so a
# reader never matches one phi's key to another's compile.
_last_compile: tuple | None = None


def _compiled(layer: QuantumLayer, features) -> tuple[np.ndarray, np.ndarray]:
    """C and dC of ``layer.phi``, compiled once while phi stays the same; read-only.

    First raises ValueError unless ``features`` is (n, n_strings), as from :func:`pauli_features`.
    """
    global _last_compile
    shape = np.shape(features)
    if len(shape) != 2 or shape[1] != len(_STRINGS):
        raise ValueError(
            f"expected Pauli features of shape (n, {len(_STRINGS)}), got shape {shape}"
        )
    key = (layer.phi.dtype.str, layer.phi.shape, layer.phi.tobytes())
    if _last_compile is not None and _last_compile[0] == key:
        return _last_compile[1]
    value = _compile(layer.phi)
    for part in value:
        part.flags.writeable = False  # shared by every later call on this phi
    _last_compile = key, value
    return value


def q_forward_batch(layer: QuantumLayer, features: np.ndarray) -> np.ndarray:
    """Exact expectations of each row of ``features``, (batch, N_FEATURES); a stack's (S, ...)."""
    coefficients, _ = _compiled(layer, features)
    out = np.matmul(features, coefficients)
    # Clip in place with two ufuncs: np.clip's wrapper costs more than the product.
    np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out)
    return out.reshape(*layer.phi.shape[:-1], *out.shape[1:])


def q_gradient_batch(layer: QuantumLayer, features: np.ndarray) -> np.ndarray:
    """Shift-rule gradients of each row of ``features``, shape (batch, N_FEATURES, n_params).

    Entry (i, j, k) = (E_j(phi + pi/2 e_k) - E_j(phi - pi/2 e_k)) / 2 on row i,
    the exact derivative dE_j/dphi_k; a stack's gradients have shape
    (S, batch, N_FEATURES, n_params). It is the features times the
    derivatives dC compiled with phi's coefficients, from the cache the
    forward pass fills. Entry (i, j, 3 + k) is exactly 0 for k != j: the
    second-layer RY on qubit k commutes with Z_j, so no path of Z_j carries
    that angle.
    """
    _, derivatives = _compiled(layer, features)
    grads = np.matmul(features, derivatives)
    return grads.reshape(*layer.phi.shape[:-1], len(features), N_FEATURES, N_ANSATZ_PARAMS)


def q_forward(layer: QuantumLayer, x) -> np.ndarray:
    """Exact Z expectations of one feature vector scaled to [0, 1]; a stack's are (S, 3)."""
    rows = feature_state(check_features(x, N_FEATURES))[None]
    return q_forward_batch(layer, pauli_features(rows))[..., 0, :]
