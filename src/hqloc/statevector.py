"""Exact dense statevector simulation of few-qubit circuits.

Conventions used throughout the package:

* Qubit 0 is the least significant bit of the basis index, so the basis
  state with q0=1, q1=1, q2=0 sits at amplitude index 3.
* RY(t) = exp(-i t Y/2), RZ(t) = exp(-i t Z/2), P(l) = diag(1, e^{il}).
* Operations never mutate their input state; they return a fresh one.
* Sampled expectations draw the count of 1 outcomes from one binomial
  distribution per (state, qubit) rather than simulating each shot.

The register is capped at ``MAX_QUBITS`` qubits because the dense
representation needs 2**n complex amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 20

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


@dataclass(frozen=True)
class Statevector:
    """Dense complex amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n_qubits: int) -> Statevector:
    """All-qubits-|0> state; ``n_qubits`` must be in [1, MAX_QUBITS]."""
    if not isinstance(n_qubits, (int, np.integer)) or isinstance(n_qubits, bool):
        raise ValueError(f"n_qubits must be an integer, got {n_qubits!r}")
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


def sample_expect_z(
    state: Statevector, qubit: int, shots: int, rng_seed: int
) -> float:
    """Z expectation estimated from ``shots`` sampled measurement outcomes.

    The number of 1 outcomes is one binomial draw with the exact probability
    of measuring 1, which has the distribution of ``shots`` independent
    measurements at a cost that does not grow with ``shots``. Reproducible
    for a fixed ``rng_seed``; returns (n_plus - n_minus) / shots.
    """
    _check_qubit(state, qubit, "measured")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    _, i1 = _target_pairs(state.n_qubits, qubit)
    amps_one = state.amplitudes[i1]
    p_one = min(max(float(np.vdot(amps_one, amps_one).real), 0.0), 1.0)
    n_one = int(np.random.default_rng(rng_seed).binomial(shots, p_one))
    return 1.0 - 2.0 * n_one / shots
