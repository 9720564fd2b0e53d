"""A training run's workspace: the pass of a dense network, or of a hybrid
model's head, writes into buffers built once per run and the optimizer steps
in place, so an epoch after the first allocates no large array, and every
value stays what a pass with fresh arrays gives."""

import re
import tracemalloc

import numpy as np
import pytest

from hqloc import data, optim
from hqloc.classical import (baseline_net, forward_batch, hqnn_head, loss_and_grad, mse_loss, stack,
                             workspace)
from hqloc.train_eval import TrainConfig, _stack, init_hybrid_model, train_stack

from oracles import backprop_reference, forward_reference, hybrid_epochs_reference

KIB = 1024


def sc1_wifi():
    """The Sc-1 WiFi stand-in's 49 scaled training rows."""
    _, samples, _ = data.gen_scenario_standin("Sc-1", "WiFi", seed=1)
    return data.transform_samples(data.fit_scaler(samples), samples)


def step_rises(monkeypatch, make, seeds):
    """How far traced memory peaks above its level at each optimizer step
    before the next step starts: one rise per interval, from epoch 0's step on.

    Each interval runs from one step's start to the next's, so it holds a whole
    step and a whole loss-and-gradient pass.
    """
    X, Z = sc1_wifi()
    real_step, levels, rises = optim.adam_step, [], []

    def measured_step(state, params, grads):
        current, peak = tracemalloc.get_traced_memory()
        if levels:
            rises.append(peak - levels[-1])
        levels.append(current)
        tracemalloc.reset_peak()
        return real_step(state, params, grads)

    monkeypatch.setattr(optim, "adam_step", measured_step)
    models = [make(s) for s in seeds]
    tracemalloc.start()
    try:
        results = train_stack(models, X, Z, TrainConfig(epochs=8))
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, Exception) for r in results)
    assert len(rises) == 7  # intervals from epoch 0's step to epoch 7's
    return rises


@pytest.mark.parametrize("seeds", [(1, 2, 3), (1,)])
def test_a_dense_epoch_allocates_no_large_array(monkeypatch, seeds):
    """From epoch 2 on, traced memory between two successive optimizer steps
    peaks less than 128 KiB above its level at the earlier step.

    glibc serves blocks of 128 KiB and more with mmap by default and unmaps
    them on free (mallopt(3)), so an array that size made every epoch faults
    its pages in every epoch. With an Adam step that makes its moments,
    scratch and result anew, four (3, 8898) arrays, a 3-seed stack peaks 835
    KiB up, and a lone network 296.
    """
    rises = step_rises(monkeypatch, baseline_net, seeds)
    assert max(rises[1:]) < 128 * KIB, [rise // KIB for rise in rises]


@pytest.mark.parametrize("seeds", [(1, 2, 3), (1,)])
def test_a_hybrid_epoch_allocates_no_large_array(monkeypatch, seeds):
    """The same bound for a hybrid stack, whose head's pass runs in a workspace.

    With fresh head layers and a fresh gradient in each pass, a 3-seed stack
    peaked ~131 KiB up, and with a fresh loss forward and joint gradient ~83.
    With both in the workspace, its epoch's fresh arrays (phi's compile, the
    exact forwards' outputs, the Jacobian and the loss's squares) peak ~44 KiB
    up.
    """
    rises = step_rises(monkeypatch, init_hybrid_model, seeds)
    assert max(rises[1:]) < 128 * KIB, [rise // KIB for rise in rises]


@pytest.mark.parametrize("make, per_seed", [
    (lambda: baseline_net(4), False),
    (lambda: hqnn_head(5), False),
    (lambda: stack([baseline_net(s) for s in (1, 2, 3)]), False),
    (lambda: stack([hqnn_head(s) for s in (1, 2)]), True),
])
def test_a_pass_into_a_workspace_equals_a_fresh_one(make, per_seed):
    net = make()
    rng = np.random.default_rng(8)
    n = 11
    work = workspace(net, n)
    for _ in range(2):  # the second pass overwrites the first's buffers
        lead = net.params.shape[:-1] if per_seed else ()
        V = rng.normal(size=(*lead, n, net.input_dim))
        Z = rng.normal(size=(n, net.output_dim))
        loss_w, grad_w, inputs_w = loss_and_grad(net, V, Z, work)
        pred = forward_batch(net, V)
        fresh_grad, fresh_inputs = backprop_reference(net, V, 2.0 * (pred - Z) / n)
        assert grad_w is work.grad
        assert np.shares_memory(inputs_w, work.deltas[0])
        np.testing.assert_array_equal(loss_w, mse_loss(pred, Z))
        np.testing.assert_allclose(grad_w, fresh_grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(inputs_w, fresh_inputs, rtol=0, atol=1e-12)


def test_a_workspace_pass_cuts_no_gradient_views(monkeypatch):
    # The workspace cuts its gradient's layer views once; each pass into it
    # reuses them.
    import hqloc.classical as classical

    net = stack([baseline_net(s) for s in (1, 2, 3)])
    rng = np.random.default_rng(9)
    V, Z = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    work = workspace(net, len(V))
    real, cuts = classical.layer_views, []

    def counted(*args):
        cuts.append(1)
        return real(*args)

    monkeypatch.setattr(classical, "layer_views", counted)
    for _ in range(3):
        loss_w, grad_w, inputs_w = loss_and_grad(net, V, Z, work=work)
        assert grad_w is work.grad
        assert cuts == []
        pred = forward_batch(net, V)
        grad, inputs = backprop_reference(net, V, 2.0 * (pred - Z) / len(V))
        np.testing.assert_array_equal(loss_w, mse_loss(pred, Z))
        np.testing.assert_allclose(grad_w, grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(inputs_w, inputs, rtol=0, atol=1e-12)


def count_view_cuts(monkeypatch, make, epochs):
    """How many times training a 2-seed stack of ``make`` cuts gradient layer views."""
    import hqloc.classical as classical

    X, Z = sc1_wifi()
    models = [make(s) for s in (1, 2)]
    real, cuts = classical.layer_views, []

    def counted(*args):
        cuts.append(1)
        return real(*args)

    monkeypatch.setattr(classical, "layer_views", counted)
    results = train_stack(models, X, Z, TrainConfig(epochs=epochs))
    assert not any(isinstance(r, Exception) for r in results)
    return len(cuts)


@pytest.mark.parametrize("epochs", [2, 6])
def test_a_dense_run_cuts_its_gradient_views_before_the_first_epoch(monkeypatch, epochs):
    # The stack's bind and its workspace, whatever the epoch count.
    assert count_view_cuts(monkeypatch, baseline_net, epochs) == 2


@pytest.mark.parametrize("epochs", [2, 6])
def test_a_hybrid_run_cuts_its_gradient_views_before_the_first_epoch(monkeypatch, epochs):
    # The stacked head's bind, the stacked model's bind of it into the joint
    # params, and the head's workspace; a fresh gradient would cut one more
    # per epoch.
    assert count_view_cuts(monkeypatch, init_hybrid_model, epochs) == 3


# The lean epoch: every view, buffer and layout built once per run, and the
# outputs of the epoch as it was first composed, bit for bit.


@pytest.mark.parametrize("optimizer, eta", [("adam", 0.001), ("sgd", 0.01)])
@pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
def test_training_equals_the_first_composed_epoch_bit_for_bit(optimizer, eta, seeds):
    # Each model of a stack against its own solo run of the reference epoch.
    X, Z = sc1_wifi()
    config = TrainConfig(optimizer=optimizer, eta=eta, epochs=40)
    models = [init_hybrid_model(s) for s in seeds]
    reports = train_stack(models, X, Z, config)
    for seed, model, report in zip(seeds, models, reports):
        reference = init_hybrid_model(seed)
        trace, final = hybrid_epochs_reference(reference, X, Z, config.epochs, optimizer, eta)
        assert report.loss_per_epoch.tobytes() == trace.tobytes()
        assert np.float64(report.final_train_mse).tobytes() == np.float64(final).tobytes()
        assert model.params.tobytes() == reference.params.tobytes()


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
def test_an_epoch_makes_two_forwards_one_jacobian_one_pass_and_one_step(
    monkeypatch, optimizer, seeds
):
    # The calls the benchmark's tracer counts, looked up where training looks
    # them up; the run ends with one more forward, for the final MSE.
    import hqloc.classical as classical
    import hqloc.train_eval as train_eval

    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((train_eval, "q_forward_batch"), (train_eval, "q_gradient_batch"),
                         (classical, "loss_and_grad"), (classical, "mse_grad"),
                         (optim, "adam_step"), (optim, "sgd_step")):
        counting(module, name)
    X, Z = sc1_wifi()
    epochs = 4
    step = f"{optimizer}_step"
    train_stack([init_hybrid_model(s) for s in seeds], X, Z,
                TrainConfig(optimizer=optimizer, eta=0.001, epochs=epochs))
    # The head's gradient pass is mse_grad, which reduces no MSE: loss_and_grad is never called.
    epoch = ["q_forward_batch", "mse_grad", "q_gradient_batch", "q_forward_batch", step]
    assert calls == epoch * epochs + ["q_forward_batch"]


def tiny_head():
    """hqnn_head(3) with its biases moved off zero, so they count in every pass."""
    net = hqnn_head(3)
    net.params[:] += np.linspace(-0.2, 0.2, net.params.size)
    return net


ROWS = "expected a batch of 4 rows, as the workspace was built for, got shape"


@pytest.mark.parametrize("V_shape, Z_shape, message", [
    ((5, 3), (5, 2), f"{ROWS} (5, 3)"),
    ((3, 3), (4, 2), f"{ROWS} (3, 3)"),
    ((0, 3), (0, 2), f"{ROWS} (0, 3)"),
    ((4, 4), (4, 2), "expected batch of shape (n, 3), got (4, 4)"),
    ((4, 2), (4, 2), "expected batch of shape (n, 3), got (4, 2)"),
    ((4,), (4, 2), "expected batch of shape (n, 3), got (4,)"),
    ((2, 4, 3), (4, 2), "expected batch of shape (n, 3), got (2, 4, 3)"),
    ((4, 3), (4, 3), "expected targets of shape (4, 2), got (4, 3)"),
    ((4, 3), (5, 2), "expected targets of shape (4, 2), got (5, 2)"),
    ((4, 3), (2,), "expected targets of shape (4, 2), got (2,)"),
], ids=["more_rows", "fewer_rows", "empty_batch", "wider", "narrower", "flat", "three_axes",
        "targets_wider", "targets_longer", "targets_flat"])
def test_a_pass_refuses_a_batch_or_targets_of_another_shape(V_shape, Z_shape, message):
    # The checks compare shapes with the workspace's. Width, rank and targets
    # fail with the messages they always had; another row count, which numpy's
    # matmul used to refuse mid-pass, now fails first, with a message of its own.
    from hqloc.classical import loss, mse_grad

    net = tiny_head()
    work = workspace(net, 4)
    for pass_ in (loss_and_grad, loss, mse_grad):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pass_(net, np.zeros(V_shape), np.zeros(Z_shape), work)


def test_a_pass_refuses_an_empty_batch_and_another_networks_workspace():
    net = tiny_head()
    with pytest.raises(ValueError, match="^loss_and_grad needs at least one sample$"):
        loss_and_grad(net, np.zeros((0, 3)), np.zeros((0, 2)), workspace(net, 0))
    with pytest.raises(ValueError, match="^the workspace was built for another network$"):
        loss_and_grad(net, np.zeros((4, 3)), np.zeros((4, 2)), workspace(hqnn_head(3), 4))
    stacked = stack([hqnn_head(s) for s in (1, 2)])
    work = workspace(stacked, 4)  # a stack takes a shared batch or one per network
    for V in (np.zeros((4, 3)), np.zeros((2, 4, 3))):
        loss_and_grad(stacked, V, np.zeros((4, 2)), work)
    with pytest.raises(ValueError, match=re.escape("got shape (3, 4, 3)")):
        loss_and_grad(stacked, np.zeros((3, 4, 3)), np.zeros((4, 2)), work)


@pytest.mark.parametrize("make", [tiny_head, lambda: stack([baseline_net(s) for s in (1, 2)])])
def test_a_workspaces_views_follow_in_place_parameter_updates(make):
    # The transposed weights and bias rows are views of params: after each
    # in-place step, a pass into the old workspace equals one into a new one.
    net = make()
    rng = np.random.default_rng(12)
    V, Z = rng.normal(size=(7, 3)), rng.normal(size=(7, 2))
    work = workspace(net, len(V))
    for _ in range(3):
        loss_w, grad_w, inputs_w = loss_and_grad(net, V, Z, work)
        fresh = loss_and_grad(net, V, Z, workspace(net, len(V)))
        assert np.asarray(loss_w).tobytes() == np.asarray(fresh[0]).tobytes()
        assert grad_w.tobytes() == fresh[1].tobytes()
        assert inputs_w.tobytes() == fresh[2].tobytes()
        before = net.params.copy()
        net.params -= 0.05 * grad_w  # an optimizer's in-place step
        assert not np.array_equal(net.params, before)
    assert all(np.shares_memory(view, net.params)
               for weight_t, bias_row, _ in net.views for view in (weight_t, bias_row))


def assert_views_follow(net):
    """``net``'s views are its current weights, cut from its ``params``, and a
    fresh forward pass through them equals the reference's."""
    assert len(net.views) == len(net.layers)
    for layer, (weight_t, bias_row, relu) in zip(net.layers, net.views):
        assert np.shares_memory(weight_t, net.params) and np.shares_memory(bias_row, net.params)
        assert np.array_equal(weight_t, layer.weight.swapaxes(-1, -2))
        assert np.array_equal(bias_row, layer.bias[..., None, :])
        assert relu == (layer.activation == "relu")
    V = np.random.default_rng(13).normal(size=(5, net.input_dim))
    assert forward_batch(net, V).tobytes() == forward_reference(net, V)[-1].tobytes()


def test_the_networks_views_follow_a_bind():
    net = tiny_head()
    old = net.params
    net.bind(np.empty_like(old))  # copies the weights, then cuts the views from the new array
    assert_views_follow(net)
    net.params[:] = np.linspace(-0.5, 0.5, net.params.size)
    old[:] = 7.0  # the array bound before no longer counts
    assert_views_follow(net)


@pytest.mark.parametrize("make", [tiny_head, lambda: stack([baseline_net(s) for s in (1, 2)])],
                         ids=["solo", "stack"])
def test_the_networks_views_follow_in_place_steps(make):
    net = make()
    assert_views_follow(net)
    for _ in range(3):
        net.params -= 0.05 * np.sign(net.params + 0.01)  # an optimizer's in-place step
        assert_views_follow(net)


def test_a_stacks_views_are_its_own():
    nets = [tiny_head() for _ in range(3)]
    stacked = stack(nets)
    assert all(not np.shares_memory(stacked.params, net.params) for net in nets)
    for net in nets:
        net.params[:] = 0.0  # the stack copied its rows
    assert_views_follow(stacked)


@pytest.mark.parametrize("seeds", [(4,), (4, 5, 6)], ids=["solo", "stack"])
def test_a_hybrid_models_binding_rebuilds_its_heads_views(seeds):
    model = _stack([init_hybrid_model(seed) for seed in seeds])
    head = model.head
    assert np.shares_memory(head.params, model.params)
    assert_views_follow(head)
    model.params -= 0.01  # a step over the joint vector moves the head too
    assert_views_follow(head)
