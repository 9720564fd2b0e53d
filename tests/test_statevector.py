"""The gate-level reference simulator against dense matrix-product oracles, and the shot sampler."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqloc.circuits import Gate, cx, ry
from hqloc.reference import MAX_QUBITS, Statevector, apply_gate, apply_gates, expect_z, h, p, rz
from hqloc.reference import zero_state
from hqloc.statevector import MAX_SHOTS, check_shots, sample_batch, sample_expect_z

from oracles import circuit_matrix, expect_z_oracle, shot_estimates_oracle


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
        a = sample_expect_z(exact, shots=1000, rng=np.random.default_rng(42))
        b = sample_expect_z(exact, shots=1000, rng=np.random.default_rng(42))
        assert a == b

    def test_converges_to_exact_value(self):
        state = apply_gate(zero_state(1), ry(0.8, 0))
        exact = expect_z(state, 0)
        est = sample_expect_z(exact, shots=200_000, rng=np.random.default_rng(1))
        assert abs(est - exact) < 0.01

    def test_deterministic_state_needs_one_shot(self):
        rng = np.random.default_rng(0)
        assert sample_expect_z(expect_z(zero_state(2), 1), shots=1, rng=rng) == 1.0

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_expect_z(expect_z(zero_state(1), 0), shots=0, rng=np.random.default_rng(0))

    def test_certain_outcomes_are_exact(self):
        # Basis state |10>: qubit 0 reads 0 with p = 1, qubit 1 reads 1 with p = 1.
        state = Statevector(2, np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            assert sample_expect_z(expect_z(state, 0), shots=4096, rng=rng) == 1.0
            assert sample_expect_z(expect_z(state, 1), shots=4096, rng=rng) == -1.0

    def test_mean_over_seeds_within_four_sigma(self):
        state = apply_gates(zero_state(3), [h(0), ry(1.1, 1), cx(1, 2)])
        shots, n_seeds = 1000, 200
        for q in range(3):
            exact = expect_z(state, q)
            mean = np.mean([sample_expect_z(exact, shots=shots, rng=np.random.default_rng(seed))
                            for seed in range(n_seeds)])
            # One estimate has variance 4 p (1 - p) / shots = (1 - exact^2) / shots.
            sigma = np.sqrt((1.0 - exact**2) / (shots * n_seeds))
            assert abs(mean - exact) <= 4.0 * sigma

    @pytest.mark.parametrize(
        "expectation", [np.nan, -np.inf, np.inf, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)]
    )
    def test_expectation_outside_the_unit_interval_refused(self, expectation):
        # (1 - E) / 2 would be NaN or a probability outside [0, 1].
        with pytest.raises(ValueError, match=r"expectation must be in \[-1, 1\]"):
            sample_expect_z(expectation, shots=64, rng=np.random.default_rng(0))

    def test_shots_and_seed_are_keyword_only(self):
        # The budget and the seeded generator are easy to swap, so neither is taken by position.
        rng = np.random.default_rng(1)
        for call in (lambda: sample_expect_z(0.5, 64, rng),
                     lambda: sample_expect_z(0.5, 64, rng=rng)):
            with pytest.raises(TypeError, match="positional argument"):
                call()

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.0, 1.0), st.integers(1, 2**40), st.integers(0, 2**63 - 1))
    def test_one_binomial_draw_from_the_generator_it_is_given(self, expectation, shots, seed):
        # The estimate is (n_plus - n_minus) / shots of one draw, and the draw
        # advances the caller's generator exactly as that binomial call does.
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        n_one = int(twin.binomial(shots, (1.0 - expectation) / 2.0))
        assert sample_expect_z(expectation, shots=shots, rng=rng) == 1.0 - 2.0 * n_one / shots
        assert rng.bit_generator.state == twin.bit_generator.state


def _bell_like_state():
    return apply_gates(zero_state(3), [h(0), ry(1.1, 1), cx(1, 2)])


# The exact expectations of :func:`_bell_like_state`'s three qubits, as one row.
BELL_LIKE = np.array([[expect_z(_bell_like_state(), q) for q in range(3)]])


def _row_draws(x, shots, seed):
    """The three draws of one row with scaled features ``x`` and :data:`BELL_LIKE` expectations."""
    return sample_batch(BELL_LIKE, np.reshape(x, (1, 3)), shots=shots, seed=seed)[0].tolist()


unit_rows = st.tuples(*[st.floats(0.0, 1.0)] * 3)
row_draws = st.tuples(unit_rows, st.integers(1, 100_000), st.integers(0, 2**63 - 1))


class TestSharedShotStream:
    """The re-keyed shared generator: a row's draws depend on its seed, budget and features alone."""

    @settings(max_examples=100, deadline=None)
    @given(row_draws, st.lists(row_draws, max_size=8), st.data())
    def test_draw_ignores_history_and_order(self, draw, others, data):
        alone = _row_draws(*draw)
        for other in others:
            _row_draws(*other)
        assert _row_draws(*draw) == alone
        calls = [draw, *others]
        expected = [_row_draws(*call) for call in calls]
        order = data.draw(st.permutations(range(len(calls))))
        assert [_row_draws(*calls[i]) for i in order] == [expected[i] for i in order]

    def test_threads_match_a_serial_run(self):
        def draw(s):
            X = np.column_stack([np.linspace(0.0, 1.0, 3), np.full(3, s / 1000.0), np.full(3, 0.5)])
            return sample_batch(np.repeat(BELL_LIKE, 3, axis=0), X, shots=1000 + s, seed=s).tolist()

        n_threads = 4  # more than the cores of a small test machine
        seeds = [range(k, 600, n_threads) for k in range(n_threads)]  # interleaved batches
        serial = [[draw(s) for s in part] for part in seeds]
        results = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def work(k):
            barrier.wait()
            results[k] = [draw(s) for s in seeds[k]]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
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
        exact = BELL_LIKE[0, qubit]
        est = np.array([_row_draws((0.1, 0.2, 0.3), shots, seed)[qubit] for seed in range(n)])
        # (n - 1) s^2 / sigma^2 is chi-squared with k = n - 1 degrees of freedom;
        # Wilson-Hilferty quantiles at +-4 standard normal deviations.
        k = n - 1
        sigma2 = (1.0 - exact**2) / shots
        lo, hi = (k * (1 - 2 / (9 * k) + z * np.sqrt(2 / (9 * k))) ** 3 for z in (-4.0, 4.0))
        assert lo <= k * est.var(ddof=1) / sigma2 <= hi
        lag1 = np.corrcoef(est[:-1], est[1:])[0, 1]
        assert abs(lag1) <= 4.0 / np.sqrt(n - 1)

    def test_a_rows_three_draws_are_uncorrelated(self):
        # The three qubits of a row are drawn one after another from one key,
        # so a stream that repeats or leaks between them shows as correlation
        # between the columns of many rows with equal expectations.
        shots, n = 1000, 2000
        X = np.random.default_rng(3).uniform(0.0, 1.0, size=(n, 3))
        est = sample_batch(np.full((n, 3), 0.3), X, shots=shots, seed=5)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            assert abs(np.corrcoef(est[:, a], est[:, b])[0, 1]) <= 4.0 / np.sqrt(n - 1)

    def test_shot_budget_above_int64_rejected(self):
        with pytest.raises(ValueError, match=r"shots must be <= 2\*\*63 - 1"):
            _row_draws((0.1, 0.2, 0.3), MAX_SHOTS + 1, 0)
        assert all(-1.0 <= e <= 1.0 for e in _row_draws((0.1, 0.2, 0.3), MAX_SHOTS, 0))

    @pytest.mark.parametrize("shots", [64.7, 64.0, np.float64(64.0), True, "64"])
    def test_non_integer_shot_budget_rejected(self, shots):
        # Each estimate divides by the budget, so 64.7 would skew every one.
        message = f"shots must be an integer, got {re.escape(repr(shots))}"
        with pytest.raises(ValueError, match=message):
            check_shots(shots)
        with pytest.raises(ValueError, match=message):
            _row_draws((0.1, 0.2, 0.3), shots, 0)
        with pytest.raises(ValueError, match=message):
            sample_expect_z(0.5, shots=shots, rng=np.random.default_rng(0))
        check_shots(np.int32(64))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # The key packs the seed as int64, so the rule is [0, 2**63 - 1].
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*63 - 1\]"):
            _row_draws((0.1, 0.2, 0.3), 10, seed)


def _feature_rows(rng, n_rows):
    """Scaled feature rows in [0, 1]: sample_batch reads only their bytes."""
    return rng.uniform(0.0, 1.0, size=(n_rows, 3))


class TestSampleBatch:
    """One key per row, from the seed and the row's scaled features, then one draw per qubit."""

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_refuses_a_stack_bad_shots_and_a_bad_seed_for_any_row_count(self, n_rows):
        X = _feature_rows(np.random.default_rng(1), n_rows)
        expectations = np.zeros((n_rows, 3))
        for shots in (0, -5, 2.0, True, MAX_SHOTS + 1):
            with pytest.raises(ValueError, match="shots must be"):
                sample_batch(expectations, X, shots=shots, seed=1)
        for seed in (-1, 2**63, 2.5, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                sample_batch(expectations, X, shots=8, seed=seed)
        with pytest.raises(ValueError, match="one layer, not a stack"):
            sample_batch(np.zeros((2, n_rows, 3)), X, shots=8, seed=1)
        with pytest.raises(ValueError, match="one feature row per row of expectations"):
            sample_batch(np.zeros((n_rows + 1, 3)), X, shots=8, seed=1)
        for bad in (X.ravel()[:n_rows], X[None]):  # flat, or with a leading axis
            with pytest.raises(ValueError, match="one feature row per row of expectations"):
                sample_batch(expectations, bad, shots=8, seed=1)

    def test_zero_rows_give_an_empty_batch(self):
        out = sample_batch(np.zeros((0, 3)), np.zeros((0, 3)), shots=8, seed=1)
        assert out.shape == (0, 3) and out.dtype == float

    def test_each_entry_is_one_seeded_draw_of_its_expectation(self):
        # Certain outcomes need no statistics: E = +1 or -1 reads back exactly.
        rng = np.random.default_rng(2)
        expectations = rng.choice([-1.0, 1.0], size=(5, 3))
        np.testing.assert_array_equal(
            sample_batch(expectations, _feature_rows(rng, 5), shots=64, seed=3), expectations
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**63 - 1), st.integers(1, 100_000), st.data())
    def test_a_rows_draws_do_not_depend_on_its_batch(self, n_rows, seed, shots, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        expectations = rng.uniform(-1.0, 1.0, size=(n_rows, 3))
        X = _feature_rows(rng, n_rows)
        batch = sample_batch(expectations, X, shots=shots, seed=seed)
        order = data.draw(st.permutations(range(n_rows)))
        i = data.draw(st.integers(0, n_rows - 1))
        np.testing.assert_array_equal(
            sample_batch(expectations[order], X[order], shots=shots, seed=seed), batch[order]
        )
        np.testing.assert_array_equal(
            sample_batch(expectations[i : i + 1], X[i : i + 1], shots=shots, seed=seed),
            batch[i : i + 1],
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**63 - 1), st.integers(1, 2**40), st.data())
    def test_each_row_is_keyed_by_the_documented_rule(self, n_rows, seed, shots, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        expectations = rng.uniform(-1.0, 1.0, size=(n_rows, 3))
        X = _feature_rows(rng, n_rows)
        batch = sample_batch(expectations, X, shots=shots, seed=seed)
        for row, x, estimates in zip(expectations, X, batch.tolist()):
            assert estimates == shot_estimates_oracle((1.0 - row) / 2.0, shots, seed, x)
