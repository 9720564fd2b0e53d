"""The batch sampler against its per-row-locked form, the lock on a refused row, the shots check."""

import hashlib
import itertools
import threading
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqloc import statevector
from hqloc.statevector import (
    MAX_SEED,
    MAX_SHOTS,
    check_seed,
    check_shots,
    sample_batch,
    sample_expect_z,
)


def per_row_locked_batch(expectations, X, *, shots: int, seed: int) -> np.ndarray:
    """``sample_batch`` as it stood when each row hashed its key and took the lock alone."""
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
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    row_key = state["state"]  # only its state and increment change from row to row
    draws = array("d")  # raw doubles: a quarter of what a list of Python floats holds
    for start, row_expectations in zip(itertools.count(0, width), expectations.tolist()):
        # Stable across runs: Python's hash() is salted, so hash the bytes instead.
        key = digest(prefix + raw[start:start + width], digest_size=32).digest()
        with statevector._SHOT_LOCK:
            row_key["state"] = from_bytes(key[:16], "little")
            row_key["inc"] = from_bytes(key[16:], "little") | 1
            statevector._SHOT_BITS.state = state
            draws.extend([sample_expect_z(e, shots=shots, rng=statevector._SHOT_RNG)
                          for e in row_expectations])
    return np.frombuffer(draws).reshape(expectations.shape)


# Exact expectations, the certain outcomes and a negative zero among them.
expectation_values = st.one_of(st.sampled_from([-1.0, 1.0, -0.0, 0.0]), st.floats(-1.0, 1.0))
shot_budgets = st.one_of(
    st.sampled_from([1, 4096, MAX_SHOTS, np.int64(4096), np.int64(MAX_SHOTS)]),
    st.integers(1, MAX_SHOTS),
)
seeds = st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED))


@st.composite
def batches(draw):
    """(expectations, X) of 0, 1 or many rows of three qubits."""
    n_rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    cells = draw(st.lists(expectation_values, min_size=3 * n_rows, max_size=3 * n_rows))
    features = draw(st.lists(st.floats(0.0, 1.0), min_size=3 * n_rows, max_size=3 * n_rows))
    return np.reshape(cells, (n_rows, 3)), np.reshape(features, (n_rows, 3))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestAgainstThePerRowLockedLoop:
    @settings(max_examples=150, deadline=None)
    @given(batches(), shot_budgets, seeds)
    @example((np.zeros((0, 3)), np.zeros((0, 3))), 4096, 1)
    @example((np.array([[1.0, -1.0, -0.0]]), np.array([[0.0, 0.5, 1.0]])), 1, 0)
    @example((np.full((25, 3), -0.0), np.linspace(0.0, 1.0, 75).reshape(25, 3)), MAX_SHOTS,
             MAX_SEED)
    @example((np.tile([[1.0, -1.0, 0.3]], (9, 1)), np.full((9, 3), 0.25)), np.int64(4096), 0)
    def test_the_same_draws_bit_for_bit(self, batch, shots, seed):
        expectations, X = batch
        out = sample_batch(expectations, X, shots=shots, seed=seed)
        expected = per_row_locked_batch(expectations, X, shots=shots, seed=seed)
        assert out.shape == expected.shape and out.dtype == np.float64
        assert _bits(out) == _bits(expected)


class TestARefusedRowReleasesTheLock:
    def test_a_nan_mid_batch_raises_and_another_threads_batch_completes(self):
        expectations = np.full((5, 3), 0.3)
        expectations[2, 1] = np.nan
        X = np.linspace(0.0, 1.0, 15).reshape(5, 3)
        with pytest.raises(ValueError, match=r"^expectation must be in \[-1, 1\], got nan$"):
            sample_batch(expectations, X, shots=64, seed=3)
        assert not statevector._SHOT_LOCK.locked()

        good = np.full((5, 3), 0.3)
        serial = sample_batch(good, X, shots=64, seed=3)
        result = []
        worker = threading.Thread(
            target=lambda: result.append(sample_batch(good, X, shots=64, seed=3))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(result) == 1 and _bits(result[0]) == _bits(serial)


class TestFastShotsCheck:
    """A plain int in range skips ``check_shots``; every other budget gets its exact message."""

    @pytest.mark.parametrize(
        "shots", [True, 1.0, np.int64(0), np.uint64(2**63), 0, -1, 2**63],
        ids=["True", "1.0", "int64-0", "uint64-2**63", "0", "-1", "2**63"],
    )
    def test_a_refused_budget_raises_check_shots_own_message(self, shots):
        with pytest.raises(ValueError) as expected:
            check_shots(shots)
        with pytest.raises(ValueError) as raised:
            sample_expect_z(0.5, shots=shots, rng=np.random.default_rng(0))
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("shots", [np.int64(64), np.int32(64), 64])
    def test_an_in_range_integer_is_accepted(self, shots):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert sample_expect_z(0.5, shots=shots, rng=rng) == sample_expect_z(0.5, shots=64,
                                                                               rng=twin)

    def test_the_expectation_is_checked_before_the_budget(self):
        with pytest.raises(ValueError, match="expectation must be in"):
            sample_expect_z(2.0, shots=0, rng=np.random.default_rng(0))
