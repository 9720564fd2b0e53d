"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (dense matrices, explicit
loops) so it shares no code paths with the package under test, but for
:func:`hybrid_epochs_reference`, which composes the package's own kernels the
way a training epoch first did.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

from hqloc import classical, optim, qlayer
from hqloc.data import CANONICAL_FIELDS, DataFormatError, RssiSample, not_utf8


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


def shot_estimates_oracle(p_one, shots: int, seed: int, x) -> list[float]:
    """One row's sampled <Z> estimates, drawn from a fresh generator in qubit order.

    The row's key is the 32-byte blake2b digest of the little-endian int64
    bytes of ``seed`` and float64 bytes of its scaled features ``x``; it keys
    a PCG64 (state, then increment forced odd), and the count of 1 outcomes
    of qubit q is the q-th binomial draw from it, with ``p_one[q]``.
    """
    message = int(seed).to_bytes(8, "little") + np.asarray(x, dtype="<f8").tobytes()
    key = hashlib.blake2b(message, digest_size=32).digest()
    bits = np.random.PCG64(0)
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(key[:16], "little"),
                  "inc": int.from_bytes(key[16:], "little") | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    rng = np.random.Generator(bits)
    return [1.0 - 2.0 * int(rng.binomial(shots, p)) / shots for p in p_one]


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
        rssi = pl0 - 10.0 * n_exp * np.array([math.log10(d / 1.0) for d in dists])
        rssi = rssi + rng.normal(0.0, sigma, size=3)
        samples.append((tuple(rssi), tuple(pos)))
    return samples


# The CSV parser as one checked loop over rows that builds a sample each, as
# it stood before the one-pass table parser; load_csv_reference is its entry.


def _resolve_columns(mapping, header, path) -> list[int]:
    columns = []
    for field in CANONICAL_FIELDS:
        source = mapping[field]
        if isinstance(source, int):
            if source < 0:
                raise DataFormatError(f"{path}: column index {source} for {field!r} is negative")
            columns.append(source)
        else:
            if header is None:
                raise DataFormatError(
                    f"{path}: mapping names column {source!r} but the file was "
                    "loaded without a header"
                )
            try:
                columns.append(header.index(source))
            except ValueError:
                raise DataFormatError(
                    f"{path}: column {source!r} for {field!r} not in header {header}"
                ) from None
    return columns


def _csv_rows(path):
    """(line, row) pairs of a UTF-8 CSV file; a row's line is where it starts in the file."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # The decoder reads ahead of the rows, so the bad byte is found in the raw file.
            raise not_utf8(path) from None


def load_csv_reference(
    path,
    has_header: bool = False,
    mapping: dict[str, int | str] | None = None,
    aggregate_positions: bool = False,
) -> list[RssiSample]:
    """Parse an RSSI fingerprint CSV into samples, in file order.

    Without a mapping every row must have exactly the five canonical numeric
    fields. ``aggregate_positions`` averages the RSSI triples of rows sharing
    an identical (x, y), keeping first-seen position order. An empty file
    yields an empty list, and a leading UTF-8 byte-order mark is dropped.
    Malformed rows, bytes that are not UTF-8 and fields past the csv module's
    size limit raise :class:`DataFormatError` naming the line.
    """
    samples: list[RssiSample] = []
    header: list[str] | None = None
    columns: list[int] | None = None
    data_started = False
    for lineno, row in _csv_rows(path):
        if not row or all(not cell.strip() for cell in row):
            continue
        row = [cell.strip() for cell in row]
        if has_header and not data_started:
            header = row
            data_started = True
            continue
        data_started = True
        if columns is None:
            if mapping is not None:
                columns = _resolve_columns(mapping, header, path)
            else:
                columns = list(range(len(CANONICAL_FIELDS)))
        if mapping is None and len(row) != len(CANONICAL_FIELDS):
            raise DataFormatError(
                f"{path}: line {lineno}: expected {len(CANONICAL_FIELDS)} "
                f"fields, got {len(row)}"
            )
        if max(columns) >= len(row):
            raise DataFormatError(
                f"{path}: line {lineno}: row has {len(row)} fields, "
                f"mapping needs column {max(columns)}"
            )
        values = []
        for field, col in zip(CANONICAL_FIELDS, columns):
            try:
                value = float(row[col])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric value {row[col]!r} "
                    f"for field {field!r}"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: line {lineno}: non-finite value for field {field!r}"
                )
            values.append(value)
        samples.append(RssiSample(rssi=tuple(values[:3]), position=tuple(values[3:])))
    if aggregate_positions:
        samples = _aggregate_by_position(samples)
    return samples


def _aggregate_by_position(samples: list[RssiSample]) -> list[RssiSample]:
    groups: dict[tuple[float, float], list[tuple[float, float, float]]] = {}
    for s in samples:
        groups.setdefault(s.position, []).append(s.rssi)
    merged = []
    for position, triples in groups.items():
        mean = np.mean(np.asarray(triples, dtype=float), axis=0)
        merged.append(RssiSample(rssi=tuple(mean), position=position))
    return merged


def aggregate_table_reference(table: np.ndarray, path) -> np.ndarray:
    """``data._aggregate_by_position`` as it was with one ``np.mean`` per position, verbatim."""
    groups: dict[tuple[float, float], list[int]] = {}
    for i, (x, y) in enumerate(table[:, 3:].tolist()):
        groups.setdefault((x, y), []).append(i)
    with np.errstate(over="ignore"):  # an overflowing mean is refused below
        merged = np.array([
            [*np.mean(table[rows, :3], axis=0).tolist(), *position]
            for position, rows in groups.items()
        ], dtype=float).reshape(-1, len(CANONICAL_FIELDS))
    finite = np.isfinite(merged[:, :3]).all(axis=1)
    if not finite.all():
        x, y = merged[finite.argmin(), 3:].tolist()
        raise DataFormatError(
            f"{path}: the RSSI readings at position ({x!r}, {y!r}) average beyond "
            "the float64 range"
        )
    return merged


def hybrid_epochs_reference(model, X, Z, epochs: int, optimizer: str, eta: float):
    """A hybrid model's training as the epoch was first composed: (loss trace, final MSE).

    This pins how training composes the package's kernels, not the kernels
    themselves, which the other oracles here check. Each epoch runs the package's kernels in their first order: the exact
    forward, the head's ``loss_and_grad`` into a workspace, the shift-rule
    Jacobian, phi's gradient as a plain einsum, the joint gradient by
    ``np.concatenate``, the loss from a second exact forward through a
    fresh-array head pass, then one ``adam_step`` or ``sgd_step``. It steps
    ``model.params`` in place.
    """
    features = qlayer.pauli_features(qlayer.encode_batch(X))
    work = classical.workspace(model.head, len(X))
    state = optim.init_adam(model.params.shape, eta=eta) if optimizer == "adam" else None

    def train_mse():
        U = qlayer.q_forward_batch(model.qlayer, features)
        return classical.mean_squared_norm(classical.forward_batch(model.head, U) - Z)

    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            U = qlayer.q_forward_batch(model.qlayer, features)
            _, head_grad, input_grads = classical.loss_and_grad(model.head, U, Z, work)
            shift_matrices = qlayer.q_gradient_batch(model.qlayer, features)
            phi_grad = np.einsum("...nj,...njk->...k", input_grads, shift_matrices)
            grads = np.concatenate([phi_grad, head_grad], axis=-1)
            trace.append(train_mse())
            if state is None:
                optim.sgd_step(model.params, grads, eta)
            else:
                optim.adam_step(state, model.params, grads)
        return np.array(trace), train_mse()
