"""Quantum layer forward/gradient tests, including the shift-rule identities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqloc import data, qlayer, statevector, train_eval
from hqloc.circuits import cx, feature_state, real_amplitudes, ry
from hqloc.qlayer import (
    QuantumLayer,
    encode_batch,
    pauli_features,
    q_forward,
    q_forward_batch,
    q_gradient_batch,
)
from hqloc.reference import Statevector, apply_gate, apply_gates, expect_z, h, rz, zero_state
from hqloc.reference import zz_feature_map
from hqloc.statevector import check_seed, sample_batch

from oracles import (
    circuit_matrix,
    compile_reference,
    fd_gradient,
    p_one_oracle,
    shift_rule_jacobian,
    shot_estimates_oracle,
)


def make_layer(rng):
    return QuantumLayer(phi=rng.uniform(-np.pi, np.pi, size=6))


def ansatz_matrices(phis):
    """Dense matrices of :func:`real_amplitudes` for each angle vector of ``phis``: (m, 8, 8).

    RY and CX are real, so the oracle's complex product is kept as its real part.
    """
    phis = np.atleast_2d(phis)
    return np.array([circuit_matrix(real_amplitudes(3, phi), 3).real for phi in phis])


def gate_level_expectations(phi, x):
    """<Z_q> for q = 0, 1, 2 from the gate-by-gate simulator."""
    state = apply_gates(zero_state(3), zz_feature_map(x) + real_amplitudes(3, phi))
    return np.array([expect_z(state, q) for q in range(3)])


def features_of(X):
    """The Pauli features of the scaled rows of ``X``, one row or many: the kernel's input."""
    return pauli_features(encode_batch(np.atleast_2d(X)))


def sample_rows(layer, X, shots, seed=0):
    """Shot estimates of the layer on the rows of ``X``, drawn as an evaluation draws them."""
    X = np.atleast_2d(X)
    return sample_batch(q_forward_batch(layer, features_of(X)), X, shots=shots, seed=seed)


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
        encoded = Statevector(3, feature_state(x))
        expected = [expect_z(encoded, q) for q in range(3)]
        np.testing.assert_allclose(q_forward(layer, x), expected, atol=1e-12)

    def test_sampled_forward_reproducible_and_decorrelated(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng)
        x1 = np.array([0.2, 0.5, 0.8])
        x2 = np.array([0.5, 0.2, 0.8])
        np.testing.assert_array_equal(sample_rows(layer, x1, 512), sample_rows(layer, x1, 512))
        assert not np.array_equal(sample_rows(layer, x1, 512), sample_rows(layer, x2, 512))

    def test_sampled_forward_near_exact_with_many_shots(self):
        rng = np.random.default_rng(3)
        layer = make_layer(rng)
        x = np.array([0.4, 0.1, 0.9])
        np.testing.assert_allclose(
            sample_rows(layer, x, 100_000, seed=7)[0], q_forward(layer, x), atol=0.02
        )


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
            grad = q_gradient_batch(layer, features_of(x))[0]
            assert grad.shape == (3, 6)
            for j in range(3):
                def expectation(phi, j=j, x=x):
                    return q_forward(QuantumLayer(phi=phi), x)[j]

                fd = fd_gradient(lambda v, j=j: expectation(v, j), layer.phi.copy(), h=1e-5)
                np.testing.assert_allclose(grad[j], fd, atol=1e-6)


class TestBatchedPath:
    @settings(max_examples=50, deadline=None)
    @given(phis, batches)
    def test_forward_batch_matches_per_sample(self, phi, X):
        layer = QuantumLayer(phi=phi)
        batch = q_forward_batch(layer, features_of(X))
        loop = np.array([q_forward(layer, x) for x in X])
        np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(phis, batches)
    def test_gradient_batch_matches_per_sample(self, phi, X):
        layer = QuantumLayer(phi=phi)
        batch = q_gradient_batch(layer, features_of(X))
        loop = np.array([q_gradient_batch(layer, features_of(x))[0] for x in X])
        np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(phis, batches)
    def test_kernel_matches_gate_level_reference(self, phi, X):
        layer = QuantumLayer(phi=phi)
        features = features_of(X)
        forward = q_forward_batch(layer, features)
        jacobian = q_gradient_batch(layer, features)
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
        # The kernel is exact only; sampling is sample_batch's step after it.
        rng = np.random.default_rng(10)
        layer = make_layer(rng)
        X = rng.uniform(0, 1, size=(2, 3))
        features = features_of(X)
        for call in (lambda: q_forward_batch(layer, features, shots=64),
                     lambda: q_forward(layer, X[0], shots=64),
                     lambda: q_gradient_batch(layer, features, shots=64)):
            with pytest.raises(TypeError):
                call()

    @settings(max_examples=50, deadline=None)
    @given(phis, batches, st.integers(0, 2**62), st.integers(1, 10_000))
    def test_sampled_forward_batch_matches_per_sample(self, phi, X, seed, shots):
        layer = QuantumLayer(phi=phi)
        batch = sample_rows(layer, X, shots, seed)
        loop = np.array([sample_rows(layer, x, shots, seed)[0] for x in X])
        np.testing.assert_array_equal(batch, loop)
        reversed_batch = sample_rows(layer, X[::-1], shots, seed)
        np.testing.assert_array_equal(reversed_batch, batch[::-1])

    @pytest.mark.parametrize("n_rows", [1, 7])
    def test_sampled_batch_draws_three_times_per_row_and_builds_no_generator(
        self, monkeypatch, n_rows
    ):
        # The benchmark patches statevector.sample_expect_z, pins it at
        # N_FEATURES calls per fix, and reads each call's budget from its shots keyword.
        calls = []
        real = statevector.sample_expect_z

        def counting(*args, **kwargs):
            calls.append((*args, kwargs["shots"], kwargs["rng"]))
            return real(*args, **kwargs)

        def no_generator(*args, **kwargs):
            raise AssertionError("sampling built a fresh generator")

        rng = np.random.default_rng(12)
        model = train_eval.init_hybrid_model(12)
        X = rng.uniform(0, 1, size=(n_rows, 3))
        monkeypatch.setattr(statevector, "sample_expect_z", counting)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        out = train_eval.hqnn_forward_batch(model, X, shots=256, seed=4)
        assert out.shape == (n_rows, 2)
        # One draw per (row, qubit), in row-major order, each from the exact
        # forward's E, and every draw from the one shared, re-keyed generator.
        exact = q_forward_batch(model.qlayer, features_of(X))
        shared = statevector._SHOT_RNG
        assert calls == [(e, 256, shared) for e in exact.ravel().tolist()]

    def test_seed_outside_int64_rejected(self):
        layer, x = QuantumLayer(phi=np.zeros(6)), np.array([0.1, 0.2, 0.3])
        # The rule every seeded entry point applies: an integer in [0, 2**63 - 1].
        for seed in (2**63, -1, -(2**63)):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*63 - 1\]"):
                sample_rows(layer, x, 8, seed)
        sample_rows(layer, x, 8, 2**63 - 1)

    @pytest.mark.parametrize("seed", [2.5, 2.0, np.float64(2.0), True, "2"])
    def test_non_integer_seed_rejected(self, seed):
        # The int64 packing of the shot keys would sample 2.5 exactly as seed 2.
        message = f"seed must be an integer, got {re.escape(repr(seed))}"
        with pytest.raises(ValueError, match=message):
            check_seed(seed)
        with pytest.raises(ValueError, match=message):
            sample_rows(QuantumLayer(phi=np.zeros(6)), np.array([0.1, 0.2, 0.3]), 8, seed)
        check_seed(np.int64(2))

    def test_encode_batch_rows_are_feature_states(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(5, 3))
        rows = encode_batch(X)
        for row, x in zip(rows, X):
            assert feature_state(x).tobytes() == row.tobytes()


class TestSamplingFromTheExactForward:
    """A sampled entry is a binomial draw with p_one = (1 - E_j) / 2 of the exact forward."""

    @settings(max_examples=100, deadline=None)
    @given(phis, st.integers(1, 30).flatmap(
        lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 1.0))
    ))
    def test_p_one_from_the_kernel_matches_the_dense_oracle(self, phi, X):
        rows = encode_batch(X)
        p_kernel = (1.0 - q_forward_batch(QuantumLayer(phi=phi), pauli_features(rows))) / 2.0
        p_dense = p_one_oracle(ansatz_matrices(phi)[0], rows)
        assert np.abs(p_kernel - p_dense).max() <= 1e-15

    @pytest.fixture(scope="class")
    def trained(self):
        """Two models trained 300 epochs on stand-in cells, with 500 fresh rows each."""
        cells = []
        for name, technology, seed in (("Sc-1", "WiFi", 1), ("Sc-2", "Zigbee", 2)):
            _, train_set, test_set = data.gen_scenario_standin(name, technology, seed, n_test=500)
            scaler = data.fit_scaler(train_set)
            model = train_eval.init_hybrid_model(seed)
            train_eval.train(model, *data.transform_samples(scaler, train_set),
                             train_eval.TrainConfig(epochs=300))
            X = data.transform_samples(scaler, test_set)[0]
            cells.append((model.qlayer, X, encode_batch(X), seed))
        return cells

    @pytest.mark.parametrize("shots", [64, 4096])
    def test_every_draw_equals_the_one_fed_by_the_oracle_p_one(self, trained, shots):
        # The oracle keys each row by the documented rule, from the seed and
        # the row's scaled features, and feeds it the dense oracle's p_one.
        flipped = []
        for layer, X, rows, seed in trained:
            exact = q_forward_batch(layer, pauli_features(rows))
            sampled = sample_batch(exact, X, shots=shots, seed=seed)
            p_kernel = (1.0 - exact) / 2.0
            p_dense = p_one_oracle(ansatz_matrices(layer.phi)[0], rows).astype(float)
            expected = [shot_estimates_oracle(p, shots, seed, x) for p, x in zip(p_dense, X)]
            for i, q in np.ndindex(sampled.shape):
                if sampled[i, q] != expected[i][q]:
                    flipped.append(f"seed {seed} row {i} qubit {q}: sampled {sampled[i, q]} vs "
                                   f"{expected[i][q]}, p_one {float(p_kernel[i, q])!r} (kernel) vs "
                                   f"{float(p_dense[i, q])!r} (oracle)")
        assert not flipped, "\n".join(flipped)


class TestValidation:
    def test_rejects_matrix_phi(self):
        with pytest.raises(ValueError):
            QuantumLayer(phi=np.zeros((2, 3)))

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError, match=r"shots must be >= 1, got 0"):
            train_eval.hqnn_forward_batch(
                train_eval.init_hybrid_model(0), np.array([[0.1, 0.2, 0.3]]), shots=0
            )

    @pytest.mark.parametrize("shots", [-5, 0, True, 2.0, 2**63])
    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_bad_shots_refused_for_any_row_count(self, shots, n_rows):
        # Zero rows make no draw, so only an up-front check refuses the budget.
        model = train_eval.init_hybrid_model(0)
        with pytest.raises(ValueError, match="shots must be"):
            train_eval.hqnn_forward_batch(model, np.full((n_rows, 3), 0.5), shots=shots, seed=1)

    @pytest.mark.parametrize("n_angles", [0, 5, 7])
    def test_rejects_wrong_angle_count(self, n_angles):
        with pytest.raises(ValueError, match="6 angles"):
            QuantumLayer(phi=np.zeros(n_angles))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(6,), (2, 6)])
    def test_rejects_non_finite_phi(self, bad, shape):
        phi = np.zeros(shape)
        phi.flat[-1] = bad
        with pytest.raises(ValueError, match="phi must be finite"):
            QuantumLayer(phi=phi)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_wrong_feature_width_refused_before_any_product(self, monkeypatch, width):
        def no_product(*args):
            raise AssertionError("built a kernel table for rows of the wrong width")

        monkeypatch.setattr(qlayer, "_compile", no_product)
        monkeypatch.setattr(qlayer, "_PAULI_MATRICES", None)  # a features product would fail
        monkeypatch.setattr(qlayer, "_last_compile", None)
        layer = QuantumLayer(phi=np.zeros(6))
        rows = encode_batch(np.full((4, width), 0.5))
        shape = re.escape(str(rows.shape))
        with pytest.raises(ValueError, match=rf"3 features .*got shape {shape}"):
            pauli_features(rows)
        x = np.full(width, 0.5)
        with pytest.raises(ValueError, match=rf"3 features, got shape \({width},\)"):
            q_forward(layer, x)

    @pytest.mark.parametrize("features", [
        encode_batch(np.full((4, 3), 0.5)),  # encoded rows, not their features
        np.zeros((4, 19)),
        np.zeros((4, 21)),
        np.zeros(20),
        np.zeros((1, 4, 20)),
    ], ids=["encoded_rows", "19_wide", "21_wide", "one_row_flat", "three_axes"])
    def test_each_kernel_entry_refuses_features_of_another_shape_before_compiling(
        self, monkeypatch, features
    ):
        def no_compile(*args):
            raise AssertionError("compiled phi for features of the wrong shape")

        monkeypatch.setattr(qlayer, "_compile", no_compile)
        monkeypatch.setattr(qlayer, "_last_compile", None)
        layer = QuantumLayer(phi=np.zeros(6))
        message = rf"Pauli features of shape \(n, 20\), got shape {re.escape(str(features.shape))}"
        for entry in (q_forward_batch, q_gradient_batch):
            with pytest.raises(ValueError, match=message):
                entry(layer, features)


# The uncounted compile, for references the counting fixture below does not see.
compile_phi = qlayer._compile


def uncached_forward(phi, features):
    """Exact expectations of ``phi`` on Pauli ``features`` from a fresh compile."""
    phi = np.array(phi)
    coefficients, _ = compile_phi(phi)
    out = np.clip(np.matmul(features, coefficients), -1.0, 1.0)
    return out.reshape(*phi.shape[:-1], *out.shape[1:])


@pytest.fixture
def builds(monkeypatch):
    """Angle-vector counts of each compile of phi the layer makes, from an empty cache."""
    real, calls = qlayer._compile, []

    def counted(phi):
        calls.append(len(np.atleast_2d(phi)))
        return real(phi)

    monkeypatch.setattr(qlayer, "_compile", counted)
    monkeypatch.setattr(qlayer, "_last_compile", None)
    return calls


class TestForwardCache:
    """The exact path compiles phi once, and never serves another phi's compile."""

    rows = encode_batch(np.random.default_rng(20).uniform(0, 1, size=(5, 3)))
    features = pauli_features(rows)

    def test_an_in_place_write_is_seen_by_the_next_forward(self, builds):
        from hqloc.train_eval import init_hybrid_model

        model = init_hybrid_model(20)
        before = q_forward_batch(model.qlayer, self.features)
        np.testing.assert_array_equal(before, uncached_forward(model.qlayer.phi, self.features))
        model.params[2] -= 0.25  # an optimizer step writes into params like this
        after = q_forward_batch(model.qlayer, self.features)
        np.testing.assert_array_equal(after, uncached_forward(model.qlayer.phi, self.features))
        assert not np.array_equal(after, before)
        assert builds == [1, 1]

    def test_an_in_place_write_into_the_features_is_seen_too(self, builds):
        # The kernel keys nothing on its input, so a batch rewritten in place
        # (or a new batch at the old one's address) is read afresh.
        layer = make_layer(np.random.default_rng(28))
        features = self.features.copy()
        before = q_forward_batch(layer, features)
        features[1] = features[3]
        after = q_forward_batch(layer, features)
        np.testing.assert_array_equal(after, uncached_forward(layer.phi, features))
        np.testing.assert_array_equal(after[1], before[3])
        assert builds == [1]

    def test_alternating_layers_each_get_their_own_output(self, builds):
        rng = np.random.default_rng(21)
        a, b = make_layer(rng), make_layer(rng)
        expected = {id(a): uncached_forward(a.phi, self.features),
                    id(b): uncached_forward(b.phi, self.features)}
        for layer in (a, b, a, a, b):
            np.testing.assert_array_equal(
                q_forward_batch(layer, self.features), expected[id(layer)]
            )
        assert builds == [1, 1, 1, 1]  # the repeated a is the only hit

    def test_a_stack_keys_apart_from_its_rows(self, builds):
        # A stack's phi is a non-contiguous (S, 6) view of its (S, P) params,
        # as in a training stack; a stack of one holds a solo row's bytes.
        params = np.random.default_rng(22).uniform(-np.pi, np.pi, size=(2, 10))
        stack, stack_of_one = QuantumLayer(params[:, :6]), QuantumLayer(params[:1, :6])
        assert not stack.phi.flags.c_contiguous
        solos = [QuantumLayer(params[s, :6]) for s in range(2)]
        for layer in (stack, solos[0], stack, solos[1], stack_of_one, solos[0], stack_of_one):
            out = q_forward_batch(layer, self.features)
            assert out.shape == (*layer.phi.shape[:-1], len(self.features), 3)
            np.testing.assert_array_equal(out, uncached_forward(layer.phi, self.features))
        assert builds == [2, 1, 2, 1, 1, 1, 1]

    def test_the_cached_matrices_refuse_writes(self, builds):
        layer = make_layer(np.random.default_rng(23))
        q_forward_batch(layer, self.features)
        cached = qlayer._compiled(layer, self.features)
        for matrix, fresh in zip(cached, compile_phi(layer.phi)):
            np.testing.assert_array_equal(matrix, fresh)
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0
        np.testing.assert_array_equal(
            q_forward_batch(layer, self.features), uncached_forward(layer.phi, self.features)
        )
        assert builds == [1]

    def test_the_cache_holds_one_entry(self, builds):
        rng = np.random.default_rng(24)
        layers = [make_layer(rng) for _ in range(3)]
        batches = [pauli_features(encode_batch(rng.uniform(0, 1, size=(n, 3)))) for n in (2, 3, 4)]
        for layer, features in zip(layers, batches):
            q_forward_batch(layer, features)
        key, (coefficients, _) = qlayer._last_compile  # one (key, value) pair
        assert key[2] == layers[-1].phi.tobytes()
        np.testing.assert_array_equal(coefficients, compile_phi(layers[-1].phi)[0])
        for layer, features in zip(layers, batches):  # the first two were dropped: each builds again
            np.testing.assert_array_equal(
                q_forward_batch(layer, features), uncached_forward(layer.phi, features)
            )
        assert builds == [1] * 6

    def test_the_jacobian_reuses_the_forward_build(self, builds):
        layer = make_layer(np.random.default_rng(25))
        q_forward_batch(layer, self.features)
        q_gradient_batch(layer, self.features)
        q_forward_batch(layer, self.features)
        assert builds == [1]
        cold = make_layer(np.random.default_rng(26))
        jacobian = q_gradient_batch(cold, self.features)  # a cold phi: the Jacobian compiles
        assert builds == [1, 1]
        q_forward_batch(cold, self.features)  # and the next forward hits
        assert builds == [1, 1]
        np.testing.assert_allclose(
            jacobian, shift_rule_jacobian(ansatz_matrices, cold.phi, self.rows), atol=1e-13
        )


class TestLiteralShiftRule:
    """The Jacobian read off the forward state equals the shift rule's shifted circuits."""

    @settings(max_examples=25, deadline=None)
    @given(
        stacked=st.integers(1, 4).flatmap(
            lambda n_stack: arrays(float, (n_stack, 6), elements=st.floats(-np.pi, np.pi))
        ),
        X=st.integers(1, 60).flatmap(
            lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 1.0))
        ),
    )
    def test_stacks_match_the_dense_shifted_matrices(self, stacked, X):
        rows = encode_batch(X)
        jacobian = q_gradient_batch(QuantumLayer(phi=stacked), pauli_features(rows))
        for s, phi in enumerate(stacked):
            np.testing.assert_allclose(
                jacobian[s], shift_rule_jacobian(ansatz_matrices, phi, rows), rtol=0, atol=1e-13
            )

    def test_a_flipped_sign_table_entry_is_caught(self, monkeypatch):
        # Random unit states, not encoded rows: an encoded row's amplitudes
        # share one modulus, so its Z-only strings read 0 and their paths'
        # signs would not show.
        rng = np.random.default_rng(27)
        layer = make_layer(rng)
        rows = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        expected = shift_rule_jacobian(ansatz_matrices, layer.phi, rows)
        features = pauli_features(rows)
        np.testing.assert_allclose(q_gradient_batch(layer, features), expected, atol=1e-13)
        scatter = qlayer._SCATTER
        for path in range(len(scatter)):
            flipped = scatter.copy()
            flipped[path] *= -1.0
            monkeypatch.setattr(qlayer, "_SCATTER", flipped)
            monkeypatch.setattr(qlayer, "_last_compile", None)  # or the old compile is served
            assert np.abs(q_gradient_batch(layer, features) - expected).max() > 1e-3, path


def pauli_matrix(x, z, n_qubits=3):
    """The string with X on the qubits of mask ``x`` and Z on those of ``z``, by Kronecker
    products."""
    single = {(0, 0): np.eye(2), (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]]),
              (0, 1): np.diag([1.0, -1.0])}
    matrix = np.ones((1, 1))
    for q in range(n_qubits):  # qubit 0 is the least significant bit, so it goes last
        matrix = np.kron(single[x >> q & 1, z >> q & 1], matrix)
    return matrix


def heisenberg_observables(phi):
    """U^T Z_j U for each qubit j from the dense ansatz matrix, shape (3, 8, 8)."""
    unitary = ansatz_matrices(phi)[0]
    return np.array([unitary.T @ pauli_matrix(0, 1 << j) @ unitary for j in range(3)])


# Angles over eleven decades of magnitude, with exact 0 and +-pi among them.
wide_angles = st.one_of(
    st.sampled_from([0.0, np.pi, -np.pi]),
    st.builds(lambda size, sign: sign * size, st.floats(1e-8, 1e3), st.sampled_from([1.0, -1.0])),
)


class TestPauliCompile:
    """The paths propagated at import compile phi into the Heisenberg observables."""

    stacks = st.integers(1, 4).flatmap(
        lambda n_stack: arrays(float, (n_stack, 6), elements=st.floats(-np.pi, np.pi))
    )

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(phis, stacks))
    def test_the_coefficients_and_derivatives_sum_to_the_observables(self, phi):
        coefficients, derivatives = qlayer._compile(phi)
        strings = np.array([pauli_matrix(x, z) for x, z in qlayer._STRINGS])
        for s, angles in enumerate(np.atleast_2d(phi)):
            np.testing.assert_allclose(
                np.einsum("pj,pab->jab", coefficients[s], strings),
                heisenberg_observables(angles), rtol=0, atol=1e-12,
            )
            slopes = derivatives[s].reshape(len(strings), 3, 6)
            for k in range(6):
                step = np.eye(6)[k] * np.pi / 2
                shifted = 0.5 * (heisenberg_observables(angles + step)
                                 - heisenberg_observables(angles - step))
                np.testing.assert_allclose(
                    np.einsum("pj,pab->jab", slopes[:, :, k], strings), shifted, rtol=0, atol=1e-12
                )

    @settings(max_examples=15, deadline=None)
    @given(phis, st.integers(1, 60).flatmap(
        lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 1.0))
    ))
    def test_forward_and_jacobian_match_the_references_on_up_to_60_rows(self, phi, X):
        layer, rows = QuantumLayer(phi=phi), encode_batch(X)
        forward = q_forward_batch(layer, pauli_features(rows))
        for i, x in enumerate(X):
            np.testing.assert_allclose(
                forward[i], gate_level_expectations(phi, x), rtol=0, atol=1e-12
            )
        np.testing.assert_allclose(
            q_gradient_batch(layer, pauli_features(rows)),
            shift_rule_jacobian(ansatz_matrices, phi, rows),
            rtol=0, atol=1e-12,
        )

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(phis, stacks), batches)
    def test_another_qubits_second_layer_angle_has_an_exact_zero_derivative(self, phi, X):
        # The second-layer RY on qubit k commutes with Z_j for k != j, so no
        # path of Z_j carries phi_{3+k}.
        jacobian = q_gradient_batch(QuantumLayer(phi=phi), features_of(X))
        for j, k in np.ndindex(3, 3):
            if j != k:
                assert (jacobian[..., j, 3 + k] == 0.0).all(), (j, k)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        arrays(float, (6,), elements=wide_angles),
        st.integers(1, 4).flatmap(lambda n_stack: arrays(float, (n_stack, 6), elements=wide_angles)),
    ))
    def test_the_compile_equals_the_first_written_compile_bit_for_bit(self, phi):
        # The angle-major gather multiplies each path's factors over its outer
        # axis in angle order, as prod(axis=-1) over the path-major gather did.
        paths = qlayer._pauli_paths(real_amplitudes(3, np.arange(6)), 3, 6)
        expected = compile_reference(phi, paths, qlayer._SCATTER)
        for got, want in zip(qlayer._compile(phi), expected):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # zeros too

    def test_the_ansatz_has_24_paths_over_20_strings(self):
        assert len(qlayer._SCATTER) == 6 + 8 + 10  # Z_0, Z_1 and Z_2's paths
        assert len(qlayer._STRINGS) == 20
        assert all(x & z == 0 for x, z in qlayer._STRINGS)  # no Y anywhere

    @pytest.mark.parametrize("gates, n_qubits, message", [
        ([h(0)], 1, r"through Gate\(kind='H'"),
        ([ry(0.0, 0), rz(0.5, 0)], 1, r"through Gate\(kind='RZ'"),
        ([cx(0, 1), ry(0.0, 0), cx(1, 0)], 2, r"Gate\(kind='CX', target=1, control=0.* holding Y"),
        ([ry(0.0, 0), ry(0.0, 0)], 1, r"Gate\(kind='RY'.* reuses angle 0"),
    ])
    def test_the_path_table_refuses_what_it_cannot_propagate(self, gates, n_qubits, message):
        with pytest.raises(ValueError, match=message):
            qlayer._pauli_paths(gates, n_qubits, 1)

    def test_an_ansatz_it_cannot_propagate_fails_at_import(self, monkeypatch):
        import importlib.util

        import hqloc.circuits as circuits

        real = circuits.real_amplitudes
        monkeypatch.setattr(circuits, "real_amplitudes", lambda n, phi: real(n, phi) + [h(0)])
        spec = importlib.util.spec_from_file_location("hqloc.qlayer_probe", qlayer.__file__)
        with pytest.raises(ValueError, match=r"through Gate\(kind='H'"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


class TestStackedLayer:
    @settings(max_examples=30, deadline=None)
    @given(
        stacked=st.integers(1, 4).flatmap(
            lambda n_stack: arrays(float, (n_stack, 6), elements=st.floats(-np.pi, np.pi))
        ),
        X=batches,
    )
    def test_each_row_equals_its_own_layer(self, stacked, X):
        features = features_of(X)
        layer = QuantumLayer(phi=stacked)
        forward, gradient = q_forward_batch(layer, features), q_gradient_batch(layer, features)
        n_stack = len(stacked)  # a stack of one keeps its seed axis too
        assert forward.shape == (n_stack, len(X), 3)
        assert gradient.shape == (n_stack, len(X), 3, 6)
        for s, phi in enumerate(stacked):
            alone = QuantumLayer(phi=phi.copy())
            np.testing.assert_array_equal(forward[s], q_forward_batch(alone, features))
            np.testing.assert_array_equal(gradient[s], q_gradient_batch(alone, features))

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (3, 6)])
    def test_zero_rows_give_empty_results(self, shape):
        layer = QuantumLayer(phi=np.zeros(shape))
        features = pauli_features(np.zeros((0, 8), dtype=complex))
        assert features.shape == (0, 20)
        assert q_forward_batch(layer, features).shape == (*shape[:-1], 0, 3)
        assert q_gradient_batch(layer, features).shape == (*shape[:-1], 0, 3, 6)

    @settings(max_examples=30, deadline=None)
    @given(
        stacked=st.integers(1, 4).flatmap(
            lambda n_stack: arrays(float, (n_stack, 6), elements=st.floats(-np.pi, np.pi))
        ),
        x=arrays(float, (3,), elements=st.floats(0.0, 1.0)),
    )
    def test_one_fix_on_a_stack_gives_each_models_row(self, stacked, x):
        out = q_forward(QuantumLayer(phi=stacked), x)
        assert out.shape == (len(stacked), 3)
        for s, phi in enumerate(stacked):
            np.testing.assert_array_equal(out[s], q_forward(QuantumLayer(phi=phi.copy()), x))

    def test_shapes_and_shots_are_refused(self):
        with pytest.raises(ValueError, match="or a stack of them"):
            QuantumLayer(phi=np.zeros((2, 2, 6)))
        with pytest.raises(ValueError, match="one layer, not a stack"):
            sample_rows(QuantumLayer(phi=np.zeros((2, 6))), np.zeros((1, 3)), 8)
