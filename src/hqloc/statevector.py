"""Exact dense statevector simulation of few-qubit circuits.

Conventions used throughout the package:

* Qubit 0 is the least significant bit of the basis index, so the basis
  state with q0=1, q1=1, q2=0 sits at amplitude index 3.
* RY(t) = exp(-i t Y/2), RZ(t) = exp(-i t Z/2), P(l) = diag(1, e^{il}).
* Operations never mutate their input state; they return a fresh one.
* A sampled expectation starts from the exact <Z> of the measured qubit,
  which gives the probability (1 - <Z>) / 2 of measuring 1, and draws the
  count of 1 outcomes from one binomial distribution rather than simulating
  each shot. Every draw comes from one module-level PCG64 stream that is
  re-keyed from a blake2b digest of the draw's seed, so a draw depends only
  on its seed, shot budget and probability, never on earlier draws or other
  threads.

The register is capped at ``MAX_QUBITS`` qubits because the dense
representation needs 2**n complex amplitudes.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 20

# Largest shot budget a binomial draw takes (numpy counts in int64).
MAX_SHOTS = 2**63 - 1

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


def check_integer(name: str, value) -> None:
    """Raise ValueError naming ``value`` unless it is an int or a numpy integer; bool is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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


def check_shots(shots: int) -> None:
    """Raise ValueError unless ``shots`` is an integer budget in [1, MAX_SHOTS]."""
    check_integer("shots", shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= 2**63 - 1, got {shots}")


# The one stream behind every sampled expectation. Each draw re-keys it under
# the lock, so the key and the draw it feeds are never split by another thread.
_SHOT_BITS = np.random.PCG64()
_SHOT_RNG = np.random.Generator(_SHOT_BITS)
_SHOT_LOCK = threading.Lock()


def sample_expect_z(expectation: float, *, shots: int, rng_seed: int) -> float:
    """Z expectation estimated from ``shots`` sampled measurement outcomes.

    ``expectation`` is the exact <Z> of the measured qubit, such as
    :func:`expect_z` reads off a state, so each shot gives 1 with probability
    (1 - expectation) / 2. The number of 1 outcomes is one binomial draw with
    that probability, which has the distribution of ``shots`` independent
    measurements at a cost that does not grow with ``shots``. The draw comes
    from a shared PCG64 generator keyed by a 32-byte blake2b digest of
    ``rng_seed`` (in [0, 2**64)): the first 16 bytes set the 128-bit state,
    the last 16 the increment, forced odd. No generator is built per call,
    and the result depends only on ``rng_seed``, ``shots`` and
    ``expectation``. Raises ValueError for an expectation that is NaN or
    outside [-1, 1]. Returns (n_plus - n_minus) / shots.
    """
    if not -1.0 <= expectation <= 1.0:
        raise ValueError(f"expectation must be in [-1, 1], got {expectation!r}")
    check_shots(shots)
    if not 0 <= rng_seed < 2**64:
        raise ValueError(f"rng_seed must be in [0, 2**64), got {rng_seed}")
    key = hashlib.blake2b(int(rng_seed).to_bytes(8, "little"), digest_size=32).digest()
    with _SHOT_LOCK:
        _SHOT_BITS.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": int.from_bytes(key[:16], "little"),
                "inc": int.from_bytes(key[16:], "little") | 1,
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        n_one = int(_SHOT_RNG.binomial(shots, (1.0 - expectation) / 2.0))
    return 1.0 - 2.0 * n_one / shots
