"""Shot sampling: Pauli-Z estimates from a finite number of shots, and the integer checks.

A sampled expectation starts from the exact <Z> of the measured qubit, which
gives the probability (1 - <Z>) / 2 of measuring 1, and draws the count of 1
outcomes from one binomial distribution rather than simulating each shot.
:func:`sample_batch` keys each row once: one module-level PCG64 stream is
re-keyed from a blake2b digest of the seed and the row's scaled features,
and the row's qubits are then drawn from it in order. The digests are all
taken before the stream's lock, which a batch then holds once while it
re-keys and draws row by row. So a row's estimates depend only on the seed,
the shot budget, its features and its exact expectations, never on its
batch, earlier draws or other threads.

No state is simulated here: the gate-level simulator is the reference in
:mod:`hqloc.reference`. The module keeps its name because the benchmark
traces ``statevector.sample_expect_z``.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from array import array

import numpy as np

# Largest shot budget a binomial draw takes (numpy counts in int64).
MAX_SHOTS = 2**63 - 1

# Seeds reach numpy generators, which take only non-negative integers, and the
# shot keys pack them as int64.
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


# The one stream behind every sampled row. A batch re-keys it for each row under
# the lock, so no row's key and the draws it feeds are split by another thread.
_SHOT_BITS = np.random.PCG64()
_SHOT_RNG = np.random.Generator(_SHOT_BITS)
_SHOT_LOCK = threading.Lock()


def sample_expect_z(expectation: float, *, shots: int, rng: np.random.Generator) -> float:
    """Z expectation estimated from ``shots`` sampled measurement outcomes.

    ``expectation`` is the exact <Z> of the measured qubit, so each shot
    gives 1 with probability (1 - expectation) / 2. The number of 1 outcomes
    is one ``rng.binomial`` draw with that probability, which has the
    distribution of ``shots`` independent measurements at a cost that does
    not grow with ``shots``. Raises ValueError for an expectation that is
    NaN or outside [-1, 1], then for a budget :func:`check_shots` refuses;
    a plain int in range passes with one type test and one comparison.
    Returns (n_plus - n_minus) / shots.
    """
    if not -1.0 <= expectation <= 1.0:
        raise ValueError(f"expectation must be in [-1, 1], got {expectation!r}")
    if type(shots) is not int or not 1 <= shots <= MAX_SHOTS:  # the common case in one test
        check_shots(shots)
    return 1.0 - 2.0 * int(rng.binomial(shots, (1.0 - expectation) / 2.0)) / shots


def sample_batch(expectations, X, *, shots: int, seed: int) -> np.ndarray:
    """Shot estimates of exact (n_rows, n_qubits) expectations, in that shape.

    Row i re-keys the shared PCG64 stream from one 32-byte blake2b digest of
    the little-endian int64 bytes of ``seed`` and float64 bytes of X[i], the
    row's scaled features: the first 16 bytes set the 128-bit state, the
    last 16 the increment, forced odd. Its qubits are then drawn in order,
    one :func:`sample_expect_z` each. Every row's digest is taken before the
    stream's lock, and the batch holds the lock once for all its rows, so
    a row's estimates do not depend on the rest of the batch or on other
    threads. ``shots`` and ``seed`` are checked even for zero rows, and a
    stack's (S, n_rows, n_qubits) expectations are refused. An expectation
    :func:`sample_expect_z` refuses raises its ValueError and releases the
    lock.
    """
    check_shots(shots)
    check_seed(seed)
    expectations = np.asarray(expectations, dtype=float)
    if expectations.ndim != 2:
        raise ValueError("shot sampling takes one layer, not a stack")
    X = np.asarray(X, dtype="<f8")
    if X.ndim != 2 or len(X) != len(expectations):
        raise ValueError(f"expected one feature row per row of expectations, got shape "
                         f"{X.shape} for {len(expectations)} rows")
    prefix = int(seed).to_bytes(8, "little")
    raw, width = X.tobytes(), 8 * X.shape[1]
    digest, from_bytes = hashlib.blake2b, int.from_bytes
    # Stable across runs: Python's hash() is salted, so hash the bytes instead.
    keys = [digest(prefix + raw[start:start + width], digest_size=32).digest()
            for start in itertools.islice(itertools.count(0, width), len(X))]
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    row_key = state["state"]  # only its state and increment change from row to row
    draws = array("d")  # raw doubles: a quarter of what a list of Python floats holds
    with _SHOT_LOCK:
        for key, row_expectations in zip(keys, expectations.tolist()):
            row_key["state"] = from_bytes(key[:16], "little")
            row_key["inc"] = from_bytes(key[16:], "little") | 1
            _SHOT_BITS.state = state
            for e in row_expectations:
                draws.append(sample_expect_z(e, shots=shots, rng=_SHOT_RNG))
    return np.frombuffer(draws).reshape(expectations.shape)
