"""Quantum layer forward/gradient tests, including the shift-rule identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqloc.circuits import feature_state, real_amplitudes, zz_feature_map
from hqloc.qlayer import (
    QuantumLayer,
    encode_batch,
    q_forward,
    q_forward_batch,
    q_gradient,
    q_gradient_batch,
)
from hqloc.statevector import apply_gate, apply_gates, expect_z, ry, zero_state

from oracles import fd_gradient


def make_layer(rng, shots=None):
    return QuantumLayer(phi=rng.uniform(-np.pi, np.pi, size=6), shots=shots)


def gate_level_expectations(phi, x):
    """<Z_q> for q = 0, 1, 2 from the gate-by-gate simulator."""
    state = apply_gates(zero_state(3), zz_feature_map(x) + real_amplitudes(3, phi))
    return np.array([expect_z(state, q) for q in range(3)])


phis = arrays(float, (6,), elements=st.floats(-np.pi, np.pi))
batches = st.integers(1, 6).flatmap(
    lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 1.0))
)


class TestForward:
    def test_output_shape_and_range(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            layer = make_layer(rng)
            out = q_forward(layer, rng.uniform(0, 1, size=3))
            assert out.shape == (3,)
            assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_deterministic_without_shots(self):
        rng = np.random.default_rng(1)
        layer = make_layer(rng)
        x = np.array([0.2, 0.7, 0.4])
        np.testing.assert_array_equal(q_forward(layer, x), q_forward(layer, x))

    def test_zero_ansatz_reproduces_feature_map_expectations(self):
        x = np.array([0.3, 0.6, 0.9])
        layer = QuantumLayer(phi=np.zeros(6))
        encoded = feature_state(x)
        expected = [expect_z(encoded, q) for q in range(3)]
        np.testing.assert_allclose(q_forward(layer, x), expected, atol=1e-12)

    def test_sampled_forward_reproducible_and_decorrelated(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, shots=512)
        x1 = np.array([0.2, 0.5, 0.8])
        x2 = np.array([0.5, 0.2, 0.8])
        np.testing.assert_array_equal(q_forward(layer, x1), q_forward(layer, x1))
        assert not np.array_equal(q_forward(layer, x1), q_forward(layer, x2))

    def test_sampled_forward_near_exact_with_many_shots(self):
        rng = np.random.default_rng(3)
        layer = make_layer(rng)
        noisy = QuantumLayer(phi=layer.phi, shots=100_000, seed=7)
        x = np.array([0.4, 0.1, 0.9])
        np.testing.assert_allclose(q_forward(noisy, x), q_forward(layer, x), atol=0.02)


class TestShiftRule:
    def test_single_qubit_ry_gradient_is_minus_sine(self):
        # <Z> after RY(theta)|0> equals cos(theta); the shifted difference
        # quotient must therefore equal -sin(theta) exactly
        rng = np.random.default_rng(4)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=50):
            def expectation(angle):
                return expect_z(apply_gate(zero_state(1), ry(angle, 0)), 0)

            shift_grad = 0.5 * (
                expectation(theta + np.pi / 2) - expectation(theta - np.pi / 2)
            )
            np.testing.assert_allclose(shift_grad, -np.sin(theta), atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            layer = make_layer(rng)
            x = rng.uniform(0, 1, size=3)
            grad = q_gradient(layer, x)
            assert grad.shape == (3, 6)
            for j in range(3):
                def expectation(phi, j=j, x=x):
                    return q_forward(QuantumLayer(phi=phi), x)[j]

                fd = fd_gradient(lambda v, j=j: expectation(v, j), layer.phi.copy(), h=1e-5)
                np.testing.assert_allclose(grad[j], fd, atol=1e-6)

    def test_gradient_refuses_sampled_mode(self):
        rng = np.random.default_rng(7)
        layer = make_layer(rng, shots=100)
        with pytest.raises(ValueError):
            q_gradient(layer, np.array([0.1, 0.2, 0.3]))


class TestBatchedPath:
    @settings(max_examples=50, deadline=None)
    @given(phis, batches)
    def test_forward_batch_matches_per_sample(self, phi, X):
        layer = QuantumLayer(phi=phi)
        batch = q_forward_batch(layer, encode_batch(X))
        loop = np.array([q_forward(layer, x) for x in X])
        np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(phis, batches)
    def test_gradient_batch_matches_per_sample(self, phi, X):
        layer = QuantumLayer(phi=phi)
        batch = q_gradient_batch(layer, encode_batch(X))
        loop = np.array([q_gradient(layer, x) for x in X])
        np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(phis, batches)
    def test_kernel_matches_gate_level_reference(self, phi, X):
        layer = QuantumLayer(phi=phi)
        rows = encode_batch(X)
        forward = q_forward_batch(layer, rows)
        jacobian = q_gradient_batch(layer, rows)
        for i, x in enumerate(X):
            np.testing.assert_allclose(
                forward[i], gate_level_expectations(phi, x), rtol=0, atol=1e-12
            )
            for k in range(6):
                step = np.eye(6)[k] * np.pi / 2
                shifted = 0.5 * (
                    gate_level_expectations(phi + step, x)
                    - gate_level_expectations(phi - step, x)
                )
                np.testing.assert_allclose(jacobian[i, :, k], shifted, rtol=0, atol=1e-12)

    def test_batch_refuses_sampled_mode(self):
        # Only the gradient refuses shots; a sampled forward batch equals its rows.
        rng = np.random.default_rng(10)
        layer = make_layer(rng, shots=64)
        X = rng.uniform(0, 1, size=(2, 3))
        rows = encode_batch(X)
        np.testing.assert_array_equal(
            q_forward_batch(layer, rows), [q_forward(layer, x) for x in X]
        )
        with pytest.raises(ValueError):
            q_gradient_batch(layer, rows)

    @settings(max_examples=50, deadline=None)
    @given(phis, batches, st.integers(0, 2**62), st.integers(1, 10_000))
    def test_sampled_forward_batch_matches_per_sample(self, phi, X, seed, shots):
        layer = QuantumLayer(phi=phi, shots=shots, seed=seed)
        batch = q_forward_batch(layer, encode_batch(X))
        loop = np.array([q_forward(layer, x) for x in X])
        np.testing.assert_array_equal(batch, loop)
        reversed_batch = q_forward_batch(layer, encode_batch(X[::-1]))
        np.testing.assert_array_equal(reversed_batch, batch[::-1])

    def test_encode_batch_rows_are_feature_states(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(5, 3))
        rows = encode_batch(X)
        for row, x in zip(rows, X):
            np.testing.assert_array_equal(row, feature_state(x).amplitudes)


class TestValidation:
    def test_rejects_matrix_phi(self):
        with pytest.raises(ValueError):
            QuantumLayer(phi=np.zeros((2, 3)))

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            QuantumLayer(phi=np.zeros(6), shots=0)

    @pytest.mark.parametrize("n_angles", [0, 5, 7])
    def test_rejects_wrong_angle_count(self, n_angles):
        with pytest.raises(ValueError, match="6 angles"):
            QuantumLayer(phi=np.zeros(n_angles))

    @pytest.mark.parametrize("observables", [(), (0, 0), (0, 3), (-1,), (0.5,)])
    def test_rejects_bad_observables(self, observables):
        with pytest.raises(ValueError, match="observables"):
            QuantumLayer(phi=np.zeros(6), observables=observables)
