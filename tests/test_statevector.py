"""Statevector engine tests against dense matrix-product oracles."""

import numpy as np
import pytest

from hqloc.statevector import (
    MAX_QUBITS,
    Gate,
    Statevector,
    apply_gate,
    apply_gates,
    cx,
    expect_z,
    h,
    p,
    ry,
    rz,
    sample_expect_z,
    zero_state,
)

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
        state = apply_gate(zero_state(1), ry(1.1, 0))
        a = sample_expect_z(state, 0, shots=1000, rng_seed=42)
        b = sample_expect_z(state, 0, shots=1000, rng_seed=42)
        assert a == b

    def test_converges_to_exact_value(self):
        state = apply_gate(zero_state(1), ry(0.8, 0))
        exact = expect_z(state, 0)
        est = sample_expect_z(state, 0, shots=200_000, rng_seed=1)
        assert abs(est - exact) < 0.01

    def test_deterministic_state_needs_one_shot(self):
        assert sample_expect_z(zero_state(2), 1, shots=1, rng_seed=0) == 1.0

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_expect_z(zero_state(1), 0, shots=0, rng_seed=0)

    def test_certain_outcomes_are_exact(self):
        # Basis state |10>: qubit 0 reads 0 with p = 1, qubit 1 reads 1 with p = 1.
        state = Statevector(2, np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
        for seed in range(20):
            assert sample_expect_z(state, 0, shots=4096, rng_seed=seed) == 1.0
            assert sample_expect_z(state, 1, shots=4096, rng_seed=seed) == -1.0

    def test_mean_over_seeds_within_four_sigma(self):
        state = apply_gates(zero_state(3), [h(0), ry(1.1, 1), cx(1, 2)])
        shots, n_seeds = 1000, 200
        for q in range(3):
            exact = expect_z(state, q)
            mean = np.mean([sample_expect_z(state, q, shots, seed) for seed in range(n_seeds)])
            # One estimate has variance 4 p (1 - p) / shots = (1 - exact^2) / shots.
            sigma = np.sqrt((1.0 - exact**2) / (shots * n_seeds))
            assert abs(mean - exact) <= 4.0 * sigma
