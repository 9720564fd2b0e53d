"""A training run's workspace: the dense pass writes into buffers built once per
run and the optimizer steps in place, so an epoch after the first allocates no
large array, and every value stays what a pass with fresh arrays gives."""

import tracemalloc

import numpy as np
import pytest

from hqloc import data, optim
from hqloc.classical import baseline_net, hqnn_head, loss_and_grad, stack, workspace
from hqloc.train_eval import TrainConfig, train_stack

KIB = 1024


def sc1_wifi():
    """The Sc-1 WiFi stand-in's 49 scaled training rows."""
    _, samples, _ = data.gen_scenario_standin("Sc-1", "WiFi", seed=1)
    return data.transform_samples(data.fit_scaler(samples), samples)


@pytest.mark.parametrize("seeds", [(1, 2, 3), (1,)])
def test_a_dense_epoch_allocates_no_large_array(monkeypatch, seeds):
    """From epoch 2 on, traced memory between two successive optimizer steps
    peaks less than 128 KiB above its level at the earlier step.

    Each interval runs from one step's start to the next's, so it holds a whole
    step and a whole loss-and-gradient pass. glibc serves blocks of 128 KiB and
    more with mmap by default and unmaps them on free (mallopt(3)), so an
    array that size made every epoch faults its pages in every epoch. With an
    Adam step that makes its moments, scratch and result anew, four (3, 8898)
    arrays, a 3-seed stack peaks 835 KiB up, and a lone network 296. The hybrid
    stack is left out: it takes no workspace, and its fresh head layers and
    Jacobian peak ~130 KiB up for a 3-seed stack.
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
    models = [baseline_net(s) for s in seeds]
    tracemalloc.start()
    try:
        results = train_stack(models, X, Z, [TrainConfig(epochs=8, seed=s) for s in seeds])
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, Exception) for r in results)
    assert len(rises) == 7  # intervals from epoch 0's step to epoch 7's
    assert max(rises[1:]) < 128 * KIB, [rise // KIB for rise in rises]


@pytest.mark.parametrize("make, per_seed", [
    (lambda: baseline_net(4), False),
    (lambda: hqnn_head(5), False),
    (lambda: stack([baseline_net(s) for s in (1, 2, 3)]), False),
    (lambda: stack([hqnn_head(s) for s in (1, 2)]), True),
])
def test_a_pass_into_a_workspace_equals_a_fresh_one_bit_for_bit(make, per_seed):
    net = make()
    rng = np.random.default_rng(8)
    n = 11
    grad, work = np.empty(net.params.shape), workspace(net, n)
    for _ in range(2):  # the second pass overwrites the first's buffers
        lead = net.params.shape[:-1] if per_seed else ()
        V = rng.normal(size=(*lead, n, net.input_dim))
        Z = rng.normal(size=(n, net.output_dim))
        loss, fresh_grad, fresh_inputs = loss_and_grad(net, V, Z)
        loss_w, grad_w, inputs_w = loss_and_grad(net, V, Z, grad, work)
        assert grad_w is grad
        assert np.shares_memory(inputs_w, work.deltas[0])
        np.testing.assert_array_equal(loss_w, loss)
        np.testing.assert_array_equal(grad_w, fresh_grad)
        np.testing.assert_array_equal(inputs_w, fresh_inputs)


def test_a_gradient_view_takes_the_gradient_in_place():
    # A hybrid model's head writes its gradient into its columns of the model's.
    net, n_angles = hqnn_head(3), 6
    rng = np.random.default_rng(2)
    V, Z = rng.normal(size=(7, 3)), rng.normal(size=(7, 2))
    full = np.full(n_angles + net.params.size, 7.0)
    _, grad, _ = loss_and_grad(net, V, Z, full[n_angles:])
    np.testing.assert_array_equal(full[:n_angles], 7.0)
    np.testing.assert_array_equal(full[n_angles:], loss_and_grad(net, V, Z)[1])
    assert np.shares_memory(grad, full)



def test_a_workspace_pass_cuts_no_gradient_views(monkeypatch):
    # The workspace cuts its gradient's layer views once; each pass into it
    # reuses them, and a one-off pass still cuts its own.
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
        loss, grad, inputs = loss_and_grad(net, V, Z)
        assert len(cuts) == 1
        cuts.clear()
        np.testing.assert_array_equal(loss_w, loss)
        np.testing.assert_array_equal(grad_w, grad)
        np.testing.assert_array_equal(inputs_w, inputs)


@pytest.mark.parametrize("epochs", [2, 6])
def test_a_dense_run_cuts_its_gradient_views_before_the_first_epoch(monkeypatch, epochs):
    import hqloc.classical as classical

    X, Z = sc1_wifi()
    models = [baseline_net(s) for s in (1, 2)]
    real, cuts = classical.layer_views, []

    def counted(*args):
        cuts.append(1)
        return real(*args)

    monkeypatch.setattr(classical, "layer_views", counted)
    results = train_stack(models, X, Z, [TrainConfig(epochs=epochs, seed=s) for s in (1, 2)])
    assert not any(isinstance(r, Exception) for r in results)
    assert len(cuts) == 2  # the stack's bind and its workspace, whatever the epoch count
