"""Dense network tests: init bounds, backprop vs finite differences, batching, flat params,
and the fused loss-and-gradient pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqloc.classical import (
    BASELINE_SIZES,
    HEAD_SIZES,
    DenseLayer,
    DenseNet,
    backward_batch,
    baseline_net,
    forward,
    forward_batch,
    glorot_net,
    hqnn_head,
    layer_views,
    loss_and_grad,
    mse_loss,
    stack,
    workspace,
)

from oracles import fd_gradient


def tiny_net():
    # 2 -> 3 (relu) -> 2 (linear) with hand-picked weights.
    return DenseNet(
        [
            DenseLayer(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), np.array([0.0, 0.5, -0.25]), "relu"),
            DenseLayer(np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]]), np.array([0.1, -0.2]), "linear"),
        ]
    )


class TestGlorotInit:
    @pytest.mark.parametrize("sizes", [(3, 32, 2), (3, 128, 64, 2), (4, 7, 5, 3, 2)])
    def test_weight_bounds_and_zero_bias(self, sizes):
        net = glorot_net(sizes, np.random.default_rng(0))
        for layer, fan_in, fan_out in zip(net.layers, sizes, sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert layer.weight.shape == (fan_out, fan_in)
            assert np.all(np.abs(layer.weight) <= bound)
            np.testing.assert_array_equal(layer.bias, np.zeros(fan_out))

    def test_hidden_relu_output_linear(self):
        net = glorot_net((3, 8, 8, 2), np.random.default_rng(1))
        assert [layer.activation for layer in net.layers] == ["relu", "relu", "linear"]

    def test_same_seed_same_weights(self):
        a = glorot_net((3, 16, 2), 7)
        b = glorot_net((3, 16, 2), 7)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_int_seed_matches_generator(self):
        a = glorot_net((3, 5, 2), 11)
        b = glorot_net((3, 5, 2), np.random.default_rng(11))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_factory_shapes_and_counts(self):
        head = hqnn_head(np.random.default_rng(0))
        base = baseline_net(np.random.default_rng(0))
        assert (head.input_dim, head.output_dim) == (HEAD_SIZES[0], HEAD_SIZES[-1])
        assert (base.input_dim, base.output_dim) == (BASELINE_SIZES[0], BASELINE_SIZES[-1])
        # 3*32+32 + 32*2+2 and 3*128+128 + 128*64+64 + 64*2+2.
        assert head.params.size == 194
        assert base.params.size == 8898


class TestForward:
    def test_tiny_net_by_hand(self):
        # Hidden pre-acts for x=(1, 2): (1, 2.5, -1.25) -> relu (1, 2.5, 0);
        # outputs (1 + 5 + 0 + 0.1, -1 + 0 + 0 - 0.2).
        out = forward(tiny_net(), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [6.1, -1.2], rtol=0, atol=1e-12)

    def test_relu_clips_negative_preactivations(self):
        net = DenseNet(
            [
                DenseLayer(np.array([[1.0]]), np.array([0.0]), "relu"),
                DenseLayer(np.array([[1.0]]), np.array([0.0]), "linear"),
            ]
        )
        assert forward(net, np.array([-3.0]))[0] == 0.0
        assert forward(net, np.array([3.0]))[0] == 3.0

    def test_rejects_wrong_input_shape(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            forward(net, np.zeros(3))
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 2)))


class TestBackwardAgainstFiniteDifferences:
    def test_parameter_gradients(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            net = glorot_net((3, 6, 4, 2), rng)
            x = rng.uniform(-1.0, 1.0, size=3)
            upstream = rng.normal(size=2)

            def loss(vec):
                probe = glorot_net((3, 6, 4, 2), 0)
                probe.params[:] = vec
                return float(upstream @ forward(probe, x))

            analytic, _ = backward_batch(net, x[None], upstream[None])
            numeric = fd_gradient(loss, net.params.copy(), h=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-7)

    def test_input_gradients(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            net = glorot_net((4, 5, 2), rng)
            x = rng.uniform(-1.0, 1.0, size=4)
            upstream = rng.normal(size=2)

            def loss(v):
                return float(upstream @ forward(net, v))

            _, dx = backward_batch(net, x[None], upstream[None])
            np.testing.assert_allclose(dx[0], fd_gradient(loss, x, h=1e-6), rtol=0, atol=1e-7)

    def test_relu_dead_units_get_zero_gradient(self):
        net = DenseNet(
            [
                DenseLayer(np.array([[1.0]]), np.array([0.0]), "relu"),
                DenseLayer(np.array([[2.0]]), np.array([0.0]), "linear"),
            ]
        )
        grad, dx = backward_batch(net, np.array([[-1.0]]), np.array([[1.0]]))
        # First-layer weight sees no signal through the clipped unit.
        assert layer_views(net, grad)[0][0][0, 0] == 0.0
        assert dx[0, 0] == 0.0

    def test_gradient_layout_matches_param_vector(self):
        # Bumping entry i of net.params in place must move the loss by grad[i]*h.
        net = tiny_net()
        x = np.array([0.3, -0.7])
        upstream = np.array([1.0, -2.0])
        flat, _ = backward_batch(net, x[None], upstream[None])
        assert flat.shape == net.params.shape
        base = upstream @ forward(net, x)
        for i in range(net.params.size):
            net.params[i] += 1e-6
            delta = upstream @ forward(net, x) - base
            net.params[i] -= 1e-6
            np.testing.assert_allclose(delta / 1e-6, flat[i], rtol=0, atol=1e-5)


class TestBatchedPath:
    def test_forward_batch_matches_rows(self):
        rng = np.random.default_rng(4)
        net = glorot_net((3, 9, 2), rng)
        V = rng.uniform(-1.0, 1.0, size=(12, 3))
        out = forward_batch(net, V)
        assert out.shape == (12, 2)
        for i in range(12):
            np.testing.assert_allclose(out[i], forward(net, V[i]), rtol=0, atol=1e-14)

    def test_backward_batch_sums_per_sample(self):
        rng = np.random.default_rng(5)
        net = glorot_net((3, 7, 4, 2), rng)
        V = rng.uniform(-1.0, 1.0, size=(8, 3))
        upstream = rng.normal(size=(8, 2))
        batch_grad, batch_dx = backward_batch(net, V, upstream)
        assert batch_dx.shape == (8, 3)
        summed = np.zeros_like(net.params)
        for i in range(8):
            grad, dx = backward_batch(net, V[i : i + 1], upstream[i : i + 1])
            np.testing.assert_allclose(batch_dx[i], dx[0], rtol=0, atol=1e-12)
            summed += grad
        np.testing.assert_allclose(batch_grad, summed, rtol=0, atol=1e-12)

    def test_batch_shape_validation(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros(2))
        with pytest.raises(ValueError):
            backward_batch(net, np.zeros((4, 2)), np.zeros((3, 2)))


class TestLossAndGrad:
    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.sampled_from([HEAD_SIZES, BASELINE_SIZES]),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-0.5, 0.0),
    )
    def test_equals_separate_loss_and_backward_bit_for_bit(self, sizes, n, seed, shift):
        rng = np.random.default_rng(seed)
        net = glorot_net(sizes, rng)
        # Negative biases switch off a share of the ReLU units on every row.
        for layer in net.layers:
            layer.bias[:] = rng.uniform(shift - 0.5, shift + 0.5, size=layer.bias.shape)
        V = rng.uniform(-1.0, 1.0, size=(n, sizes[0]))
        Z = rng.uniform(-3.0, 3.0, size=(n, sizes[-1]))
        pre = V @ net.layers[0].weight.T + net.layers[0].bias
        assert (pre <= 0.0).any()  # the ReLU mask is exercised

        loss, grad, input_grads = loss_and_grad(net, V, Z, workspace(net, n))
        pred = forward_batch(net, V)
        ref_grad, ref_input_grads = backward_batch(net, V, 2.0 * (pred - Z) / n)
        assert loss == mse_loss(pred, Z)
        np.testing.assert_array_equal(grad, ref_grad)
        np.testing.assert_array_equal(input_grads, ref_input_grads)

    def test_does_not_modify_inputs(self):
        net = tiny_net()
        V = np.array([[0.3, -0.7], [1.0, 2.0]])
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        before = (V.copy(), Z.copy(), net.params.copy())
        loss_and_grad(net, V, Z, workspace(net, len(V)))
        for a, b in zip((V, Z, net.params), before):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="expected batch"):
            loss_and_grad(net, np.zeros((4, 3)), np.zeros((4, 2)), workspace(net, 4))
        with pytest.raises(ValueError, match="expected targets of shape"):
            loss_and_grad(net, np.zeros((4, 2)), np.zeros((3, 2)), workspace(net, 4))
        with pytest.raises(ValueError, match="at least one sample"):
            loss_and_grad(net, np.zeros((0, 2)), np.zeros((0, 2)), workspace(net, 0))


class TestParamVector:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        net = glorot_net((3, 10, 2), rng)
        other = glorot_net((3, 10, 2), 99)
        other.params[:] = net.params
        np.testing.assert_array_equal(other.params, net.params)
        for la, lb in zip(net.layers, other.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_vector_is_a_copy(self):
        # The net copies the arrays it is built from into its own params.
        weight, bias = np.array([[1.0, 2.0]]), np.array([3.0])
        net = DenseNet([DenseLayer(weight, bias, "linear")])
        weight[0, 0] = bias[0] = 100.0
        np.testing.assert_array_equal(net.params, [1.0, 2.0, 3.0])

    def test_layout_is_weight_then_bias_per_layer(self):
        net = tiny_net()
        expected = np.concatenate([a.ravel() for l in net.layers for a in (l.weight, l.bias)])
        np.testing.assert_array_equal(net.params, expected)
        np.testing.assert_array_equal(net.params[:6], [1.0, 0.0, 0.0, 1.0, 1.0, -1.0])
        for layer, (weight, bias) in zip(net.layers, layer_views(net, net.params)):
            assert np.shares_memory(layer.weight, net.params)
            assert np.shares_memory(layer.bias, net.params)
            np.testing.assert_array_equal(weight, layer.weight)
            np.testing.assert_array_equal(bias, layer.bias)

    def test_wrong_length_rejected(self):
        net = tiny_net()
        for size in (net.params.size - 1, net.params.size + 1):
            with pytest.raises(ValueError, match=f"expected {net.params.size} parameters"):
                layer_views(net, np.zeros(size))
            with pytest.raises(ValueError):
                net.bind(np.zeros(size))


class TestMseLoss:
    def test_hand_value(self):
        # Per-sample squared errors 1 and 4, mean 2.5.
        pred = np.array([[0.0, 0.0], [1.0, 1.0]])
        truth = np.array([[0.0, 1.0], [1.0, 3.0]])
        assert mse_loss(pred, truth) == 2.5

    def test_single_sample_promotes_to_2d(self):
        assert mse_loss([3.0, 4.0], [0.0, 0.0]) == 25.0

    def test_zero_on_exact_match(self):
        pred = np.arange(6.0).reshape(3, 2)
        assert mse_loss(pred, pred.copy()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mse_loss(np.zeros((0, 2)), np.zeros((0, 2)))


class TestStructureValidation:
    def test_bias_length_must_match(self):
        with pytest.raises(ValueError):
            DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu")

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            DenseLayer(np.zeros((2, 2)), np.zeros(2), "tanh")

    def test_layers_must_chain(self):
        with pytest.raises(ValueError):
            DenseNet(
                [
                    DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu"),
                    DenseLayer(np.zeros((2, 5)), np.zeros(2), "linear"),
                ]
            )

    def test_output_layer_must_be_linear(self):
        with pytest.raises(ValueError):
            DenseNet([DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")])


class TestStack:
    def test_rows_copy_each_network_and_layers_view_them(self):
        nets = [glorot_net(HEAD_SIZES, seed) for seed in (1, 2, 3)]
        stacked = stack(nets)
        assert stacked.params.shape == (3, nets[0].params.size)
        for row, net in zip(stacked.params, nets):
            np.testing.assert_array_equal(row, net.params)
        for layer in stacked.layers:
            assert np.shares_memory(layer.weight, stacked.params)
            assert np.shares_memory(layer.bias, stacked.params)

    @pytest.mark.parametrize("per_network_batch", [False, True])
    def test_each_network_computes_what_it_computes_alone(self, per_network_batch):
        rng = np.random.default_rng(8)
        for n_stack in range(1, 5):  # a stack of one keeps its seed axis too
            nets = [glorot_net(BASELINE_SIZES, seed) for seed in range(4, 4 + n_stack)]
            stacked = stack(nets)
            shape = (n_stack, 9, 3) if per_network_batch else (9, 3)
            V = rng.uniform(-1.0, 1.0, size=shape)
            Z = rng.uniform(-3.0, 3.0, size=(9, 2))
            upstream = rng.uniform(-1.0, 1.0, size=(n_stack, 9, 2))
            preds = forward_batch(stacked, V)
            losses, grads, input_grads = loss_and_grad(stacked, V, Z, workspace(stacked, 9))
            back_grads, back_input_grads = backward_batch(stacked, V, upstream)
            assert preds.shape == (n_stack, 9, 2) and grads.shape == stacked.params.shape
            mse = mse_loss(preds, Z)
            for s, net in enumerate(nets):
                V_s = V[s] if per_network_batch else V
                loss, grad, input_grad = loss_and_grad(net, V_s, Z, workspace(net, 9))
                assert losses[s] == loss
                np.testing.assert_array_equal(grads[s], grad)
                np.testing.assert_array_equal(input_grads[s], input_grad)
                pred = forward_batch(net, V_s)
                np.testing.assert_array_equal(preds[s], pred)
                assert mse[s] == mse_loss(pred, Z)
                back_grad, back_input_grad = backward_batch(net, V_s, upstream[s])
                np.testing.assert_array_equal(back_grads[s], back_grad)
                np.testing.assert_array_equal(back_input_grads[s], back_input_grad)

    @pytest.mark.parametrize("sizes", [HEAD_SIZES, BASELINE_SIZES])
    def test_one_input_through_a_stack_gives_each_networks_output(self, sizes):
        rng = np.random.default_rng(9)
        for n_stack in range(1, 5):
            nets = [glorot_net(sizes, seed) for seed in range(4, 4 + n_stack)]
            v = rng.uniform(-1.0, 1.0, size=3)
            out = forward(stack(nets), v)
            assert out.shape == (n_stack, 2)
            for s, net in enumerate(nets):
                np.testing.assert_array_equal(out[s], forward(net, v))

    @pytest.mark.parametrize("sizes", [HEAD_SIZES, BASELINE_SIZES])
    def test_one_input_per_network_gives_each_networks_output(self, sizes):
        rng = np.random.default_rng(10)
        for n_stack in range(2, 5):
            nets = [glorot_net(sizes, seed) for seed in range(4, 4 + n_stack)]
            V = rng.uniform(-1.0, 1.0, size=(n_stack, 3))
            out = forward(stack(nets), V)
            assert out.shape == (n_stack, 2)
            for s, net in enumerate(nets):
                np.testing.assert_array_equal(out[s], forward(net, V[s]))
            for bad in (V[:-1], V[None], np.zeros((n_stack, 4))):
                with pytest.raises(ValueError, match=rf"shape \(3,\) or \({n_stack}, 3\)"):
                    forward(stack(nets), bad)
        with pytest.raises(ValueError, match=r"expected input of shape \(3,\), got \(2, 3\)"):
            forward(glorot_net(sizes, 4), np.zeros((2, 3)))

    def test_refuses_networks_of_different_shapes(self):
        with pytest.raises(ValueError, match="networks of one shape"):
            stack([glorot_net(HEAD_SIZES, 1), glorot_net(BASELINE_SIZES, 1)])
