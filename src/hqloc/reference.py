"""References that no runtime module imports: the gate-level simulator, the swap test, RMSEs.

The simulator applies the gate lists of :mod:`hqloc.circuits` one gate at a
time to a dense amplitude vector (qubit 0 is the least significant bit of
the basis index; a gate returns a fresh state), so tests and demos can check
the closed forms the runtime computes. :func:`swap_test_fidelity` runs the
swap test of quantum fingerprinting (Buhrman et al., PRL 87, 167902, 2001)
on it. ``REFERENCE_RMSE_M`` holds the published RMSEs (meters) on the public
three-scenario datasets per (scenario, technology), the yardsticks of the
acceptance suite: the classical network, KNN, the quantum-fingerprint
matcher, and the hybrid model on quantum hardware and on an exact simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import MAX_QUBITS, Gate, cx, h, p
from .statevector import check_integer


@dataclass(frozen=True)
class Statevector:
    """Dense complex amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n_qubits: int) -> Statevector:
    """All-qubits-|0> state; ``n_qubits`` must be in [1, MAX_QUBITS]."""
    check_integer("n_qubits", n_qubits)
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(int(n_qubits), amps)


_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def single_qubit_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary of a single-qubit gate."""
    if gate.kind == "H":
        return _H_MATRIX
    if gate.angle is None:
        raise ValueError(f"{gate.kind} gate requires an angle")
    t = float(gate.angle)
    if gate.kind == "RY":
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind == "RZ":
        return np.array(
            [[np.exp(-0.5j * t), 0.0], [0.0, np.exp(0.5j * t)]], dtype=complex
        )
    if gate.kind == "P":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * t)]], dtype=complex)
    raise ValueError(f"unknown single-qubit gate kind {gate.kind!r}")


@lru_cache(maxsize=128)
def _target_pairs(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (bit q = 0, bit q = 1) over a 2**n amplitude vector."""
    idx = np.arange(2**n)
    i0 = idx[(idx >> q) & 1 == 0]
    return i0, i0 + (1 << q)


@lru_cache(maxsize=128)
def _cx_pairs(n: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs swapped by CX: control bit 1, target bit 0 vs 1."""
    idx = np.arange(2**n)
    sel = ((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)
    i0 = idx[sel]
    return i0, i0 + (1 << target)


def _check_qubit(state: Statevector, q: int, label: str) -> None:
    if not 0 <= q < state.n_qubits:
        raise ValueError(
            f"{label} qubit {q} out of range for {state.n_qubits}-qubit state"
        )


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate and return the transformed state (norm preserved)."""
    _check_qubit(state, gate.target, "target")
    n = state.n_qubits
    amps = state.amplitudes
    if gate.kind == "CX":
        if gate.control is None:
            raise ValueError("CX gate requires a control qubit")
        _check_qubit(state, gate.control, "control")
        if gate.control == gate.target:
            raise ValueError("CX control and target must be distinct")
        i0, i1 = _cx_pairs(n, gate.control, gate.target)
        new = amps.copy()
        new[i0], new[i1] = amps[i1], amps[i0]
        return Statevector(n, new)
    if gate.control is not None:
        raise ValueError(f"{gate.kind} gate takes no control qubit")
    u = single_qubit_matrix(gate)
    i0, i1 = _target_pairs(n, gate.target)
    a0, a1 = amps[i0], amps[i1]
    new = np.empty_like(amps)
    new[i0] = u[0, 0] * a0 + u[0, 1] * a1
    new[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return Statevector(n, new)


def apply_gates(state: Statevector, gates) -> Statevector:
    """Apply a gate sequence in order."""
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def expect_z(state: Statevector, qubit: int) -> float:
    """Exact Pauli-Z expectation on ``qubit``: +1 weight for bit 0, -1 for bit 1."""
    _check_qubit(state, qubit, "measured")
    probs = np.abs(state.amplitudes) ** 2
    signs = 1.0 - 2.0 * ((np.arange(probs.size) >> qubit) & 1)
    return float(np.clip(probs @ signs, -1.0, 1.0))


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


REFERENCE_RMSE_M = {
    ("Sc-1", "Bluetooth"): {
        "classical_nn": 1.277, "knn": 1.220, "quantum_fingerprint": 1.300,
        "hqnn_hardware": 1.273, "hqnn_simulator": 1.216,
    },
    ("Sc-1", "WiFi"): {
        "classical_nn": 1.290, "knn": 1.296, "quantum_fingerprint": 1.526,
        "hqnn_hardware": 1.367, "hqnn_simulator": 1.289,
    },
    ("Sc-1", "Zigbee"): {
        "classical_nn": 1.368, "knn": 1.342, "quantum_fingerprint": 1.471,
        "hqnn_hardware": 1.196, "hqnn_simulator": 1.108,
    },
    ("Sc-2", "Bluetooth"): {
        "classical_nn": 1.175, "knn": 1.273, "quantum_fingerprint": 2.171,
        "hqnn_hardware": 1.353, "hqnn_simulator": 1.279,
    },
    ("Sc-2", "WiFi"): {
        "classical_nn": 1.583, "knn": 1.272, "quantum_fingerprint": 1.755,
        "hqnn_hardware": 1.339, "hqnn_simulator": 1.231,
    },
    ("Sc-2", "Zigbee"): {
        "classical_nn": 0.819, "knn": 1.261, "quantum_fingerprint": 2.105,
        "hqnn_hardware": 0.971, "hqnn_simulator": 0.918,
    },
    ("Sc-3", "Bluetooth"): {
        "classical_nn": 1.384, "knn": 1.432, "quantum_fingerprint": 2.396,
        "hqnn_hardware": 1.337, "hqnn_simulator": 1.201,
    },
    ("Sc-3", "WiFi"): {
        "classical_nn": 0.999, "knn": 1.201, "quantum_fingerprint": 2.532,
        "hqnn_hardware": 1.224, "hqnn_simulator": 1.138,
    },
    ("Sc-3", "Zigbee"): {
        "classical_nn": 1.306, "knn": 1.379, "quantum_fingerprint": 2.616,
        "hqnn_hardware": 1.471, "hqnn_simulator": 1.298,
    },
}
