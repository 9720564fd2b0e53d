"""Optimizer tests: the Adam recursion traced by hand, against its efficient form written
out and against its textbook form, SGD, and validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqloc.optim import BETA1, BETA2, EPS, AdamState, adam_step, init_adam, sgd_step


class TestAdamHandTrace:
    def test_two_steps_constant_gradient(self):
        # Defaults beta1=0.9, beta2=0.999, eta=0.001; gradient fixed at 2.
        # Step 1: m=0.2, v=0.004, m_hat=0.2/0.1=2, v_hat=0.004/0.001=4.
        # Step 2: m=0.38, v=0.007996, m_hat=0.38/0.19=2,
        #         v_hat=0.007996/0.001999=4. Each update is eta*2/(2+eps).
        state = init_adam(1, eta=0.001)
        theta = np.array([0.5])
        g = np.array([2.0])

        state, theta = adam_step(state, theta, g)
        assert state.t == 1
        np.testing.assert_allclose(state.m, [0.2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.v, [0.004], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.m / (1 - 0.9**1), [2.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.v / (1 - 0.999**1), [4.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            theta, [0.5 - 0.001 * 2.0 / (2.0 + 1e-8)], rtol=0, atol=1e-12
        )

        state, theta = adam_step(state, theta, g)
        assert state.t == 2
        np.testing.assert_allclose(state.m, [0.38], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.v, [0.007996], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.m / (1 - 0.9**2), [2.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.v / (1 - 0.999**2), [4.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            theta,
            [0.5 - 2 * 0.001 * 2.0 / (2.0 + 1e-8)],
            rtol=0,
            atol=1e-12,
        )

    def test_bias_correction_recovers_constant_gradient(self):
        # With a constant gradient, m_hat equals g and v_hat equals g^2 at
        # every step, so each update has magnitude eta*|g|/(|g|+eps).
        state = init_adam(1, eta=0.01)
        theta = np.array([1.0])
        g = np.array([3.0])
        for step in range(1, 11):
            prev = theta.copy()
            state, theta = adam_step(state, theta, g)
            assert state.t == step
            np.testing.assert_allclose(
                state.m / (1 - 0.9**step), [3.0], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                state.v / (1 - 0.999**step), [9.0], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                prev - theta, [0.01 * 3.0 / (3.0 + 1e-8)], rtol=0, atol=1e-12
            )

    def test_elements_update_independently(self):
        # Running the vector recursion must equal per-element scalar runs.
        rng = np.random.default_rng(0)
        theta = rng.normal(size=5)
        state = init_adam(5, eta=0.003)
        scalar_states = [init_adam(1, eta=0.003) for _ in range(5)]
        scalar_thetas = [np.array([t]) for t in theta]
        for _ in range(7):
            g = rng.normal(size=5)
            state, theta = adam_step(state, theta, g)
            for i in range(5):
                scalar_states[i], scalar_thetas[i] = adam_step(
                    scalar_states[i], scalar_thetas[i], np.array([g[i]])
                )
        np.testing.assert_allclose(
            theta, np.concatenate(scalar_thetas), rtol=0, atol=1e-14
        )


class TestAdamState:
    def test_init_state(self):
        state = init_adam(4, eta=0.5)
        np.testing.assert_array_equal(state.m, np.zeros(4))
        np.testing.assert_array_equal(state.v, np.zeros(4))
        assert state.t == 0
        assert state.eta == 0.5
        assert state.scratch.shape == (4,)
        # Kingma & Ba's defaults, fixed: neither the state nor init_adam takes others.
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
        assert not {"beta1", "beta2", "eps"} & {f.name for f in dataclasses.fields(AdamState)}
        with pytest.raises(TypeError):
            init_adam(4, beta1=0.8)

    def test_step_updates_moments_and_params_in_place(self):
        state = init_adam(2)
        m, v, scratch, theta = state.m, state.v, state.scratch, np.array([1.0, 2.0])
        new_state, new_theta = adam_step(state, theta, np.array([1.0, -1.0]))
        assert new_state is state and state.t == 1
        assert state.m is m and state.v is v and state.scratch is scratch
        assert new_theta is theta
        np.testing.assert_allclose(m, [0.1, -0.1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, [0.001, 0.001], rtol=0, atol=1e-15)
        np.testing.assert_allclose(theta, [1.0 - 0.001, 2.0 + 0.001], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_step_leaves_state_and_params_as_they_were(self, bad):
        # Train a few steps first, so m and v are not the zeros init_adam gives.
        rng = np.random.default_rng(5)
        state, theta = init_adam((2, 3)), rng.normal(size=(2, 3))
        for _ in range(3):
            state, theta = adam_step(state, theta, rng.normal(size=(2, 3)))
        before = state.m.copy(), state.v.copy(), state.t, theta.copy()
        grads = rng.normal(size=(2, 3))
        grads[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(state, theta, grads)
        np.testing.assert_array_equal(state.m, before[0])
        np.testing.assert_array_equal(state.v, before[1])
        assert state.t == before[2]
        np.testing.assert_array_equal(theta, before[3])


class TestAdamValidation:
    def test_shape_mismatch(self):
        state = init_adam(3)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient(self, bad):
        state = init_adam(2)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(2), np.array([0.0, bad]))


class TestAdamTextbook:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 300),
        steps=st.integers(1, 6),
        eta=st.floats(1e-4, 0.5),
    )
    def test_matches_the_textbook_expression_bit_for_bit(self, seed, size, steps, eta):
        # Kingma & Ba (arXiv:1412.6980), Algorithm 1, started from a random state: m, v and t
        # bit for bit. theta bit for bit against the efficient form at the end of their
        # section 2, and against Algorithm 1's own update order to 1e-12 of the terms' size.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=size)
        v = rng.uniform(0.0, 2.0, size=size)
        t = int(rng.integers(0, 50))
        theta = rng.normal(size=size)
        state = AdamState(m=m.copy(), v=v.copy(), t=t, eta=eta)
        beta1, beta2 = 0.9, 0.999
        params = theta.copy()
        for _ in range(steps):
            g = rng.normal(scale=rng.uniform(1e-3, 1e3), size=size)
            t += 1
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            textbook_update = eta * m_hat / (np.sqrt(v_hat) + 1e-8)
            textbook = theta - textbook_update
            alpha = eta * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
            eps_hat = 1e-8 * math.sqrt(1.0 - beta2**t)
            theta = theta - alpha * (m / (np.sqrt(v) + eps_hat))
            state, params = adam_step(state, params, g)
            assert state.t == t
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            np.testing.assert_array_equal(params, theta)
            gap = np.abs(params - textbook)
            assert (gap <= 1e-12 * (np.abs(params) + np.abs(textbook_update))).all()


class TestSgd:
    def test_hand_value(self):
        out = sgd_step(np.array([1.0, -2.0]), np.array([0.5, 0.25]), eta=0.1)
        np.testing.assert_allclose(out, [0.95, -2.025], rtol=0, atol=1e-15)

    def test_zero_eta_is_identity(self):
        theta = np.array([3.0, -1.0, 0.5])
        np.testing.assert_array_equal(sgd_step(theta.copy(), np.ones(3), eta=0.0), theta)

    def test_shape_mismatch(self):
        theta = np.zeros(3)
        with pytest.raises(ValueError):
            sgd_step(theta, np.ones(4), eta=0.1)
        np.testing.assert_array_equal(theta, np.zeros(3))  # nothing written

    def test_steps_in_place_bit_for_bit(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(3, 40))
        grads = rng.normal(scale=10.0, size=(3, 40))
        eta = 0.0123
        expected = theta - eta * grads
        out = sgd_step(theta, grads, eta)
        assert out is theta
        np.testing.assert_array_equal(theta, expected)
