"""Shot sampling: Pauli-Z estimates from a finite number of shots, and the integer checks.

A sampled expectation starts from the exact <Z> of the measured qubit, which
gives the probability (1 - <Z>) / 2 of measuring 1, and draws the count of 1
outcomes from one binomial distribution rather than simulating each shot.
Every draw comes from one module-level PCG64 stream that is re-keyed from a
blake2b digest of the draw's seed, so a draw depends only on its seed, shot
budget and probability, never on earlier draws or other threads.

No state is simulated here: the gate-level simulator is the reference in
:mod:`hqloc.reference`. The module keeps its name because the benchmark
traces ``statevector.sample_expect_z``.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

# Largest shot budget a binomial draw takes (numpy counts in int64).
MAX_SHOTS = 2**63 - 1

# Seeds reach numpy generators, which take only non-negative integers, and the
# shot seeds pack them as int64.
MAX_SEED = 2**63 - 1


def check_integer(name: str, value) -> None:
    """Raise ValueError naming ``value`` unless it is an int or a numpy integer; bool is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_shots(shots: int) -> None:
    """Raise ValueError unless ``shots`` is an integer budget in [1, MAX_SHOTS]."""
    check_integer("shots", shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= 2**63 - 1, got {shots}")


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an integer in [0, MAX_SEED]."""
    check_integer("seed", seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2**63 - 1], got {seed}")


# The one stream behind every sampled expectation. Each draw re-keys it under
# the lock, so the key and the draw it feeds are never split by another thread.
_SHOT_BITS = np.random.PCG64()
_SHOT_RNG = np.random.Generator(_SHOT_BITS)
_SHOT_LOCK = threading.Lock()


def sample_expect_z(expectation: float, *, shots: int, rng_seed: int) -> float:
    """Z expectation estimated from ``shots`` sampled measurement outcomes.

    ``expectation`` is the exact <Z> of the measured qubit, so each shot
    gives 1 with probability (1 - expectation) / 2. The number of 1 outcomes
    is one binomial draw with that probability, which has the distribution
    of ``shots`` independent measurements at a cost that does not grow with
    ``shots``. The draw comes from a shared PCG64 generator keyed by a
    32-byte blake2b digest of ``rng_seed`` (in [0, 2**64)): the first 16
    bytes set the 128-bit state, the last 16 the increment, forced odd. No
    generator is built per call, and the result depends only on
    ``rng_seed``, ``shots`` and ``expectation``. Raises ValueError for an
    expectation that is NaN or outside [-1, 1]. Returns
    (n_plus - n_minus) / shots.
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


def sample_batch(expectations, encoded_rows, *, shots: int, seed: int) -> np.ndarray:
    """Shot estimates of exact (n_rows, n_qubits) expectations, in that shape.

    Entry (i, q) is one :func:`sample_expect_z` draw of expectations[i, q],
    seeded by a blake2b digest of the int64 bytes of (``seed``, q) and the
    bytes of encoded row i, so it does not depend on the rest of the batch.
    ``shots`` and ``seed`` are checked even for zero rows, and a stack's
    (S, n_rows, n_qubits) expectations are refused.
    """
    check_shots(shots)
    check_seed(seed)
    expectations = np.asarray(expectations, dtype=float)
    if expectations.ndim != 2:
        raise ValueError("shot sampling takes one layer, not a stack")
    if len(encoded_rows) != len(expectations):
        raise ValueError(f"expected one encoded row per row of expectations, got "
                         f"{len(encoded_rows)} for {len(expectations)}")
    n_qubits = expectations.shape[1]
    prefixes = [np.asarray([seed, q], dtype=np.int64).tobytes() for q in range(n_qubits)]
    out = np.empty_like(expectations)
    for i, (row, row_expectations) in enumerate(zip(encoded_rows, expectations.tolist())):
        row_bytes = row.tobytes()
        for q, (prefix, expectation) in enumerate(zip(prefixes, row_expectations)):
            # Stable across runs: Python's hash() is salted, so hash the bytes instead.
            digest = hashlib.blake2b(prefix + row_bytes, digest_size=8).digest()
            out[i, q] = sample_expect_z(
                expectation, shots=shots, rng_seed=int.from_bytes(digest, "little")
            )
    return out
