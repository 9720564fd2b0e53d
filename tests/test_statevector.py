"""The gate-level reference simulator against dense matrix-product oracles, and the shot sampler."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqloc.circuits import MAX_QUBITS, Gate, cx, h, p, ry, rz
from hqloc.reference import Statevector, apply_gate, apply_gates, expect_z, zero_state
from hqloc.statevector import MAX_SHOTS, check_shots, sample_batch, sample_expect_z

from oracles import circuit_matrix, expect_z_oracle


def random_gates(rng, n_qubits, n_gates):
    kinds = ["H", "RY", "RZ", "P"] + (["CX"] if n_qubits > 1 else [])
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "CX":
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(cx(int(control), int(target)))
        else:
            target = int(rng.integers(n_qubits))
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            gates.append({"H": h(target), "RY": ry(angle, target),
                          "RZ": rz(angle, target), "P": p(angle, target)}[kind])
    return gates


def random_state(rng, n_qubits):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    amps /= np.linalg.norm(amps)
    state = zero_state(n_qubits)
    return type(state)(n_qubits, amps)


class TestZeroState:
    def test_basis_vector(self):
        state = zero_state(3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected)
        assert state.n_qubits == 3

    @pytest.mark.parametrize("bad", [0, -1, MAX_QUBITS + 1, 2.5, "3", True])
    def test_rejects_bad_qubit_counts(self, bad):
        with pytest.raises(ValueError):
            zero_state(bad)

    def test_max_register_accepted(self):
        state = zero_state(MAX_QUBITS)
        assert state.amplitudes.size == 2**MAX_QUBITS


class TestSingleGates:
    def test_h_makes_uniform_superposition(self):
        state = apply_gate(zero_state(1), h(0))
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_ry_pi_flips_to_one(self):
        state = apply_gate(zero_state(1), ry(np.pi, 0))
        np.testing.assert_allclose(np.abs(state.amplitudes), [0, 1], atol=1e-15)

    def test_rz_adds_phase_only(self):
        plus = apply_gate(zero_state(1), h(0))
        rotated = apply_gate(plus, rz(0.7, 0))
        np.testing.assert_allclose(
            np.abs(rotated.amplitudes), np.abs(plus.amplitudes), atol=1e-15
        )

    def test_p_phases_the_one_component(self):
        plus = apply_gate(zero_state(1), h(0))
        phased = apply_gate(plus, p(np.pi / 3, 0))
        ratio = phased.amplitudes[1] / plus.amplitudes[1]
        np.testing.assert_allclose(ratio, np.exp(1j * np.pi / 3), atol=1e-15)
        np.testing.assert_allclose(phased.amplitudes[0], plus.amplitudes[0])

    def test_gate_acts_on_named_qubit_only(self):
        state = apply_gate(zero_state(3), ry(np.pi, 1))
        # q1=1 sits at basis index 2 under the LSB convention
        np.testing.assert_allclose(np.abs(state.amplitudes[2]), 1.0, atol=1e-15)


class TestCx:
    def test_control_one_flips_target(self):
        # |q0=1> at index 1; CX(0,1) should produce index 3
        state = apply_gate(zero_state(2), ry(np.pi, 0))
        flipped = apply_gate(state, cx(0, 1))
        assert np.argmax(np.abs(flipped.amplitudes)) == 3

    def test_control_zero_is_identity(self):
        state = apply_gate(zero_state(2), ry(np.pi, 1))
        same = apply_gate(state, cx(0, 1))
        np.testing.assert_allclose(same.amplitudes, state.amplitudes)

    def test_rejects_equal_control_and_target(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), Gate("CX", 1, control=1))

    def test_rejects_missing_control(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), Gate("CX", 1))

    def test_rejects_control_on_single_qubit_gate(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), Gate("RY", 1, control=0, angle=0.3))

    def test_rejects_out_of_range_qubits(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), h(2))
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), cx(2, 0))


class TestAgainstMatrixOracle:
    def test_random_circuits_match_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            n_qubits = int(rng.integers(1, 4))
            gates = random_gates(rng, n_qubits, int(rng.integers(1, 12)))
            state = random_state(rng, n_qubits)
            result = apply_gates(state, gates)
            expected = circuit_matrix(gates, n_qubits) @ state.amplitudes
            np.testing.assert_allclose(result.amplitudes, expected, atol=1e-12)

    def test_expect_z_matches_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(120):
            n_qubits = int(rng.integers(1, 4))
            gates = random_gates(rng, n_qubits, int(rng.integers(1, 10)))
            state = apply_gates(random_state(rng, n_qubits), gates)
            for q in range(n_qubits):
                np.testing.assert_allclose(
                    expect_z(state, q),
                    expect_z_oracle(state.amplitudes, q),
                    atol=1e-10,
                )


class TestNormAndInverses:
    def test_norm_preserved_over_random_circuits(self):
        rng = np.random.default_rng(3)
        for trial in range(120):
            n_qubits = int(rng.integers(2, 4))
            gates = random_gates(rng, n_qubits, 15)
            state = apply_gates(random_state(rng, n_qubits), gates)
            assert abs(state.norm() - 1.0) < 1e-12

    def test_gate_inverse_round_trips(self):
        rng = np.random.default_rng(5)
        inverses = {
            "H": lambda g: g,
            "RY": lambda g: ry(-g.angle, g.target),
            "RZ": lambda g: rz(-g.angle, g.target),
            "P": lambda g: p(-g.angle, g.target),
            "CX": lambda g: g,
        }
        for trial in range(120):
            n_qubits = int(rng.integers(2, 4))
            gates = random_gates(rng, n_qubits, 8)
            state = random_state(rng, n_qubits)
            forward = apply_gates(state, gates)
            back = apply_gates(forward, [inverses[g.kind](g) for g in reversed(gates)])
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_inputs_never_mutated(self):
        state = zero_state(2)
        before = state.amplitudes.copy()
        apply_gates(state, [h(0), cx(0, 1), rz(0.4, 1)])
        np.testing.assert_allclose(state.amplitudes, before)


class TestExpectZ:
    def test_zero_state_gives_plus_one(self):
        assert expect_z(zero_state(3), 0) == 1.0

    def test_flipped_qubit_gives_minus_one(self):
        state = apply_gate(zero_state(2), ry(np.pi, 1))
        np.testing.assert_allclose(expect_z(state, 1), -1.0, atol=1e-15)
        np.testing.assert_allclose(expect_z(state, 0), 1.0, atol=1e-15)

    def test_value_clipped_into_range(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            state = apply_gates(random_state(rng, 3), random_gates(rng, 3, 10))
            for q in range(3):
                assert -1.0 <= expect_z(state, q) <= 1.0


class TestSampledExpectZ:
    def test_reproducible_for_fixed_seed(self):
        exact = expect_z(apply_gate(zero_state(1), ry(1.1, 0)), 0)
        a = sample_expect_z(exact, shots=1000, rng_seed=42)
        b = sample_expect_z(exact, shots=1000, rng_seed=42)
        assert a == b

    def test_converges_to_exact_value(self):
        state = apply_gate(zero_state(1), ry(0.8, 0))
        exact = expect_z(state, 0)
        est = sample_expect_z(exact, shots=200_000, rng_seed=1)
        assert abs(est - exact) < 0.01

    def test_deterministic_state_needs_one_shot(self):
        assert sample_expect_z(expect_z(zero_state(2), 1), shots=1, rng_seed=0) == 1.0

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_expect_z(expect_z(zero_state(1), 0), shots=0, rng_seed=0)

    def test_certain_outcomes_are_exact(self):
        # Basis state |10>: qubit 0 reads 0 with p = 1, qubit 1 reads 1 with p = 1.
        state = Statevector(2, np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
        for seed in range(20):
            assert sample_expect_z(expect_z(state, 0), shots=4096, rng_seed=seed) == 1.0
            assert sample_expect_z(expect_z(state, 1), shots=4096, rng_seed=seed) == -1.0

    def test_mean_over_seeds_within_four_sigma(self):
        state = apply_gates(zero_state(3), [h(0), ry(1.1, 1), cx(1, 2)])
        shots, n_seeds = 1000, 200
        for q in range(3):
            exact = expect_z(state, q)
            mean = np.mean(
                [sample_expect_z(exact, shots=shots, rng_seed=seed) for seed in range(n_seeds)]
            )
            # One estimate has variance 4 p (1 - p) / shots = (1 - exact^2) / shots.
            sigma = np.sqrt((1.0 - exact**2) / (shots * n_seeds))
            assert abs(mean - exact) <= 4.0 * sigma

    @pytest.mark.parametrize(
        "expectation", [np.nan, -np.inf, np.inf, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)]
    )
    def test_expectation_outside_the_unit_interval_refused(self, expectation):
        # (1 - E) / 2 would be NaN or a probability outside [0, 1].
        with pytest.raises(ValueError, match=r"expectation must be in \[-1, 1\]"):
            sample_expect_z(expectation, shots=64, rng_seed=0)

    def test_shots_and_seed_are_keyword_only(self):
        # Two adjacent ints are easy to swap, so neither is taken by position.
        for call in (lambda: sample_expect_z(0.5, 64, 1),
                     lambda: sample_expect_z(0.5, 64, rng_seed=1)):
            with pytest.raises(TypeError, match="positional argument"):
                call()


def _bell_like_state():
    return apply_gates(zero_state(3), [h(0), ry(1.1, 1), cx(1, 2)])


def _bell_like_draw(qubit, shots, seed):
    """One draw of ``qubit`` of :func:`_bell_like_state` from its exact expectation."""
    return sample_expect_z(expect_z(_bell_like_state(), qubit), shots=shots, rng_seed=seed)


seeds_64 = st.integers(0, 2**64 - 1)
draws = st.tuples(st.integers(0, 2), st.integers(1, 100_000), seeds_64)


class TestSharedShotStream:
    """The re-keyed shared generator: each draw depends on its arguments alone."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2), st.integers(1, 100_000), seeds_64, st.lists(draws, max_size=8),
           st.data())
    def test_draw_ignores_history_and_order(self, qubit, shots, seed, others, data):
        alone = _bell_like_draw(qubit, shots, seed)
        for other in others:
            _bell_like_draw(*other)
        assert _bell_like_draw(qubit, shots, seed) == alone
        calls = [(qubit, shots, seed), *others]
        expected = [_bell_like_draw(*call) for call in calls]
        order = data.draw(st.permutations(range(len(calls))))
        assert [_bell_like_draw(*calls[i]) for i in order] == [expected[i] for i in order]

    def test_threads_match_a_serial_run(self):
        state = _bell_like_state()
        exact = [expect_z(state, q) for q in range(3)]

        def draw(s):
            return sample_expect_z(exact[s % 3], shots=1000 + s, rng_seed=s)

        seeds = [range(0, 1000, 2), range(1, 1000, 2)]  # 500 interleaved seeds each
        serial = [[draw(s) for s in part] for part in seeds]
        results = [None, None]
        barrier = threading.Barrier(2)

        def work(k):
            barrier.wait()
            results[k] = [draw(s) for s in seeds[k]]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_consecutive_seeds_are_independent_draws(self, qubit):
        # A poorly mixed or reused stream shows as a wrong spread or as
        # correlation between neighbouring seeds.
        shots, n = 1000, 400
        exact = expect_z(_bell_like_state(), qubit)
        est = np.array([sample_expect_z(exact, shots=shots, rng_seed=seed) for seed in range(n)])
        # (n - 1) s^2 / sigma^2 is chi-squared with k = n - 1 degrees of freedom;
        # Wilson-Hilferty quantiles at +-4 standard normal deviations.
        k = n - 1
        sigma2 = (1.0 - exact**2) / shots
        lo, hi = (k * (1 - 2 / (9 * k) + z * np.sqrt(2 / (9 * k))) ** 3 for z in (-4.0, 4.0))
        assert lo <= k * est.var(ddof=1) / sigma2 <= hi
        lag1 = np.corrcoef(est[:-1], est[1:])[0, 1]
        assert abs(lag1) <= 4.0 / np.sqrt(n - 1)

    def test_shot_budget_above_int64_rejected(self):
        with pytest.raises(ValueError, match=r"shots must be <= 2\*\*63 - 1"):
            _bell_like_draw(0, MAX_SHOTS + 1, 0)
        assert -1.0 <= _bell_like_draw(0, MAX_SHOTS, 0) <= 1.0

    @pytest.mark.parametrize("shots", [64.7, 64.0, np.float64(64.0), True, "64"])
    def test_non_integer_shot_budget_rejected(self, shots):
        # Each estimate divides by the budget, so 64.7 would skew every one.
        message = f"shots must be an integer, got {re.escape(repr(shots))}"
        with pytest.raises(ValueError, match=message):
            check_shots(shots)
        with pytest.raises(ValueError, match=message):
            _bell_like_draw(0, shots, 0)
        check_shots(np.int32(64))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be in"):
            sample_expect_z(expect_z(zero_state(1), 0), shots=10, rng_seed=seed)


def _encoded_rows(rng, n_rows):
    """Unit rows of 8 random complex amplitudes: sample_batch reads only their bytes."""
    rows = rng.normal(size=(n_rows, 8)) + 1j * rng.normal(size=(n_rows, 8))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestSampleBatch:
    """One draw per (row, qubit), seeded from the seed, the qubit and the row's bytes."""

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_refuses_a_stack_bad_shots_and_a_bad_seed_for_any_row_count(self, n_rows):
        rows = _encoded_rows(np.random.default_rng(1), n_rows)
        expectations = np.zeros((n_rows, 3))
        for shots in (0, -5, 2.0, True, MAX_SHOTS + 1):
            with pytest.raises(ValueError, match="shots must be"):
                sample_batch(expectations, rows, shots=shots, seed=1)
        for seed in (-1, 2**63, 2.5, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                sample_batch(expectations, rows, shots=8, seed=seed)
        with pytest.raises(ValueError, match="one layer, not a stack"):
            sample_batch(np.zeros((2, n_rows, 3)), rows, shots=8, seed=1)
        with pytest.raises(ValueError, match="one encoded row per row of expectations"):
            sample_batch(np.zeros((n_rows + 1, 3)), rows, shots=8, seed=1)

    def test_zero_rows_give_an_empty_batch(self):
        out = sample_batch(np.zeros((0, 3)), np.zeros((0, 8), dtype=complex), shots=8, seed=1)
        assert out.shape == (0, 3) and out.dtype == float

    def test_each_entry_is_one_seeded_draw_of_its_expectation(self):
        # Certain outcomes need no statistics: E = +1 or -1 reads back exactly.
        rng = np.random.default_rng(2)
        expectations = rng.choice([-1.0, 1.0], size=(5, 3))
        rows = _encoded_rows(rng, 5)
        np.testing.assert_array_equal(
            sample_batch(expectations, rows, shots=64, seed=3), expectations
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**63 - 1), st.integers(1, 100_000), st.data())
    def test_a_rows_draws_do_not_depend_on_its_batch(self, n_rows, seed, shots, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        expectations = rng.uniform(-1.0, 1.0, size=(n_rows, 3))
        rows = _encoded_rows(rng, n_rows)
        batch = sample_batch(expectations, rows, shots=shots, seed=seed)
        order = data.draw(st.permutations(range(n_rows)))
        i = data.draw(st.integers(0, n_rows - 1))
        np.testing.assert_array_equal(
            sample_batch(expectations[order], rows[order], shots=shots, seed=seed), batch[order]
        )
        np.testing.assert_array_equal(
            sample_batch(expectations[i : i + 1], rows[i : i + 1], shots=shots, seed=seed),
            batch[i : i + 1],
        )
