"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (dense matrices, explicit
loops) so it shares no code paths with the package under test.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def single_gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if kind == "RY":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array(
            [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex
        )
    if kind == "P":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
    raise ValueError(kind)


def gate_matrix(gate, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n matrix of one gate, qubit 0 = least significant bit."""
    dim = 2**n_qubits
    if gate.kind == "CX":
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            out = j ^ (1 << gate.target) if (j >> gate.control) & 1 else j
            m[out, j] = 1.0
        return m
    u = single_gate_matrix(gate.kind, gate.angle)
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        bit = (j >> gate.target) & 1
        for out_bit in (0, 1):
            i = (j & ~(1 << gate.target)) | (out_bit << gate.target)
            m[i, j] = u[out_bit, bit]
    return m


def circuit_matrix(gates, n_qubits: int) -> np.ndarray:
    """Product of the gate matrices, first gate applied first."""
    m = np.eye(2**n_qubits, dtype=complex)
    for gate in gates:
        m = gate_matrix(gate, n_qubits) @ m
    return m


def expect_z_oracle(amplitudes: np.ndarray, qubit: int) -> float:
    total = 0.0
    for i, a in enumerate(amplitudes):
        sign = -1.0 if (i >> qubit) & 1 else 1.0
        total += sign * (abs(a) ** 2)
    return total


def p_one_oracle(unitary: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Probability that each qubit measures 1 after ``unitary`` acts on each row: (n_rows, n).

    ``unitary`` is a real dense matrix and ``rows`` are complex states. The
    amplitudes and their squared moduli are accumulated in extended
    precision where the platform has it, so the oracle's own rounding stays
    well below a float64 kernel's.
    """
    n_qubits = int(math.log2(rows.shape[1]))
    wide = np.asarray(unitary, dtype=np.longdouble)
    real = rows.real.astype(np.longdouble) @ wide.T
    imag = rows.imag.astype(np.longdouble) @ wide.T
    bits = (np.arange(rows.shape[1])[:, None] >> np.arange(n_qubits)) & 1
    return (real * real + imag * imag) @ bits.astype(np.longdouble)


def shot_estimate_oracle(p_one: float, shots: int, seed: int, qubit: int, row: np.ndarray) -> float:
    """The layer's sampled <Z> of one (row, qubit), drawn from a fresh generator.

    The draw's seed is the blake2b digest of the int64 bytes of (seed, qubit)
    and the row's bytes; a 32-byte digest of that seed keys a PCG64 (state,
    then increment forced odd), and the count of 1 outcomes is one binomial
    draw with ``p_one``.
    """
    prefix = np.asarray([seed, qubit], dtype=np.int64).tobytes()
    digest = hashlib.blake2b(prefix + row.tobytes(), digest_size=8).digest()
    key = hashlib.blake2b(digest, digest_size=32).digest()
    bits = np.random.PCG64(0)
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(key[:16], "little"),
                  "inc": int.from_bytes(key[16:], "little") | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    n_one = int(np.random.Generator(bits).binomial(shots, p_one))
    return 1.0 - 2.0 * n_one / shots


def shift_rule_jacobian(ansatz, phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The two-point shift rule taken literally, shape (n_rows, n_qubits, n_params).

    ``ansatz`` maps angle vectors (m, n_params) to their dense (m, 2**n, 2**n)
    matrices; it builds the two matrices of ``phi`` +- pi/2 e_k for each
    angle k, and each is applied to every encoded row of ``rows``.
    """
    n_qubits = int(math.log2(rows.shape[1]))
    jacobian = np.empty((len(rows), n_qubits, phi.size))
    for k in range(phi.size):
        step = np.zeros(phi.size)
        step[k] = math.pi / 2.0
        plus, minus = ansatz(np.stack([phi + step, phi - step]))
        for i, row in enumerate(rows):
            for j in range(n_qubits):
                up, down = expect_z_oracle(plus @ row, j), expect_z_oracle(minus @ row, j)
                jacobian[i, j, k] = 0.5 * (up - down)
    return jacobian


def compile_reference(phi: np.ndarray, paths, scatter: np.ndarray):
    """The Pauli compile as first written: C and dC of each angle vector in ``phi``.

    ``paths`` are the (j, sign, x, z, factors) Pauli paths and ``scatter``
    the path-to-(string, qubit) sign matrix. Each angle vector's slots
    [0, 1, cos phi, sin phi, -sin phi] are gathered into an
    (m, 1 + n_params, n_paths, n_params) array, whose last axis is each
    path's factors in angle order, and ``prod(axis=-1)`` multiplies them.
    """
    n_angles = len(paths[0][4])
    n_strings = len({(x, z) for _, _, x, z, _ in paths})
    codes, angle = np.array([path[4] for path in paths]), np.arange(n_angles)
    value = np.where(codes == 0, 1, 2 + angle + n_angles * (codes - 1))
    derivative = np.where(codes == 0, 0, 2 + angle + 2 * n_angles * (codes == 1))
    planes = np.eye(1 + n_angles, n_angles, -1, dtype=bool)[:, None]
    gather = np.where(planes, derivative, value)
    phis = np.reshape(phi, (-1, n_angles))
    m = len(phis)
    sin = np.sin(phis)
    slots = np.concatenate([np.zeros((m, 1)), np.ones((m, 1)), np.cos(phis), sin, -sin], axis=1)
    table = (slots[:, gather].prod(axis=-1) @ scatter).reshape(m, 1 + n_angles, n_strings, -1)
    return (np.ascontiguousarray(table[:, 0]),
            table[:, 1:].transpose(0, 2, 3, 1).reshape(m, n_strings, -1))


def fd_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function, one entry at a time."""
    grad = np.empty_like(x, dtype=float)
    for k in range(x.size):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        grad[k] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def knn_oracle(features: np.ndarray, targets: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Brute-force KNN mean: sort by (distance, row index), average first k."""
    scored = []
    for i, row in enumerate(features):
        dist = math.sqrt(float(np.sum((row - x) ** 2)))
        scored.append((dist, i))
    scored.sort()
    picked = [targets[i] for _, i in scored[:k]]
    return np.mean(np.asarray(picked), axis=0)


def fidelity_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 accumulated with an explicit loop."""
    inner = 0.0 + 0.0j
    for ai, bi in zip(a, b):
        inner += np.conj(ai) * bi
    return float(abs(inner) ** 2)


def encode_reference(X: np.ndarray) -> np.ndarray:
    """The feature map's closed form, accumulated one phase gate at a time.

    Rows of ``X`` are feature vectors; the phase of each basis state starts at
    0.0 and adds the single-qubit angles, then the pair angles, in circuit
    order, each against its own bit mask.
    """
    n = X.shape[1]
    bits = (np.arange(2**n) >> np.arange(n)[:, None]) & 1
    phase = np.zeros((X.shape[0], 2**n))
    for q in range(n):
        phase += 2.0 * X[:, q : q + 1] * bits[q]
    for i in range(n - 1):
        pair = 2.0 * (math.pi - X[:, i : i + 1]) * (math.pi - X[:, i + 1 : i + 2])
        phase += pair * (bits[i] ^ bits[i + 1])
    return np.exp(1j * phase) / math.sqrt(2.0**n)


def synthetic_loop(room, tx, pl0, n_exp, sigma, rng_seed, n_points=None, positions=None):
    """(rssi, position) tuples of the log-distance channel, one position at a time.

    Positions are drawn uniformly in ``room`` unless given; each position
    then takes its three distances, floored at 1 m, and its own draw of
    three shadowing terms from the same generator.
    """
    rng = np.random.default_rng(rng_seed)
    if positions is None:
        positions = rng.uniform((0.0, 0.0), room, size=(n_points, 2))
    tx = np.asarray(tx, dtype=float)
    samples = []
    for pos in np.asarray(positions, dtype=float):
        dists = np.maximum(np.linalg.norm(tx - pos, axis=1), 1.0)
        rssi = pl0 - 10.0 * n_exp * np.log10(dists / 1.0)
        rssi = rssi + rng.normal(0.0, sigma, size=3)
        samples.append((tuple(rssi), tuple(pos)))
    return samples
