"""Flat parameter layout: every weight, bias and phi is a view into ``params``."""

import numpy as np
import pytest

from hqloc.classical import (backward_batch, forward, forward_batch, glorot_net, loss_and_grad,
                             mse_loss, workspace)
from hqloc.model_io import load_model, save_model
from hqloc.qlayer import encode_batch, pauli_features, q_forward_batch
from hqloc.train_eval import (
    HybridModel,
    TrainConfig,
    hqnn_forward,
    hqnn_forward_batch,
    hqnn_grad,
    init_hybrid_model,
    train,
)

STATES = ["fresh", "trained", "loaded"]
KINDS = ["hybrid", "dense"]


def problem(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 3)), rng.uniform(0.0, 5.0, size=(n, 2))


def make_model(kind, state, tmp_path):
    model = init_hybrid_model(seed=3) if kind == "hybrid" else glorot_net((3, 16, 8, 2), 3)
    if state != "fresh":
        train(model, *problem(3, 6), TrainConfig(epochs=5, eta=0.01))
    if state == "loaded":
        path = tmp_path / "model.params"
        save_model(path, model)
        model, _ = load_model(path)
    return model


def net_of(model):
    return model.head if isinstance(model, HybridModel) else model


def parameter_arrays(model):
    arrays = [model.qlayer.phi] if isinstance(model, HybridModel) else []
    for layer in net_of(model).layers:
        arrays += [layer.weight, layer.bias]
    return arrays


def predict(model, X):
    if isinstance(model, HybridModel):
        return hqnn_forward_batch(model, X)
    return forward_batch(model, X)


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("kind", KINDS)
class TestFlatLayout:
    def test_arrays_are_views_of_params(self, kind, state, tmp_path):
        model = make_model(kind, state, tmp_path)
        arrays = parameter_arrays(model)
        for arr in arrays:
            assert np.shares_memory(arr, model.params)
        assert np.shares_memory(net_of(model).params, model.params)
        # phi first, then per layer the row-major weight and the bias, with no gaps.
        np.testing.assert_array_equal(
            np.concatenate([arr.ravel() for arr in arrays]), model.params
        )
        assert net_of(model).params.size == model.params.size - (6 if kind == "hybrid" else 0)

    def test_writing_params_changes_forward(self, kind, state, tmp_path):
        model = make_model(kind, state, tmp_path)
        x = np.array([0.2, 0.5, 0.8])
        run = hqnn_forward if kind == "hybrid" else forward
        saved = model.params.copy()
        before = run(model, x)
        model.params[0] += 0.5  # phi[0], or the first weight of a dense net
        assert not np.array_equal(run(model, x), before)
        model.params[:] = saved
        np.testing.assert_array_equal(run(model, x), before)
        model.params[-1] += 0.5  # the bias of the last output
        after = run(model, x)
        assert after[0] == before[0]
        # (a + b) + 0.5 and a + (b + 0.5) may round apart, so output 1 holds to 2 ulp.
        np.testing.assert_array_max_ulp(after[1], before[1] + 0.5, maxulp=2)

    def test_flat_gradient_matches_finite_differences(self, kind, state, tmp_path):
        model = make_model(kind, state, tmp_path)
        X, Z = problem(11, 4)
        if kind == "hybrid":
            grad = hqnn_grad(model, X, Z)
        else:
            grad = loss_and_grad(model, X, Z, workspace(model, len(X)))[1]
        assert grad.shape == model.params.shape
        if kind == "hybrid":
            # The head's part is backward_batch's flat gradient on the expectations.
            U = q_forward_batch(model.qlayer, pauli_features(encode_batch(X)))
            upstream = 2.0 * (forward_batch(model.head, U) - Z) / len(X)
            np.testing.assert_array_equal(backward_batch(model.head, U, upstream)[0], grad[6:])
        base = model.params.copy()
        numeric = np.empty_like(base)
        h = 1e-5
        for k in range(base.size):
            model.params[k] = base[k] + h
            up = mse_loss(predict(model, X), Z)
            model.params[k] = base[k] - h
            down = mse_loss(predict(model, X), Z)
            model.params[k] = base[k]
            numeric[k] = (up - down) / (2.0 * h)
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-6)
