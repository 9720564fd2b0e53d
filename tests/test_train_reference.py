"""End-to-end training against an independent reference loop.

The reference takes nothing from hqloc but the initial parameter vector. Its
circuits are products of the dense gate matrices in ``oracles.py``, laid out
here from the circuit description (feature map: H, P(2 x_q), CX-P-CX pairs;
ansatz: RY layer, CX chain, RY layer). The head is plain numpy with
hand-written backprop, the angle gradient is the two-point shift rule, and
the update is the Adam or the plain gradient-descent formula written out.

The dense baseline has its own reference: a plain numpy loop with a separate
forward pass for the loss, textbook backprop, plain gradient descent or Adam
in Kingma & Ba's efficient form, which training must match bit for bit.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

import hqloc.classical as classical
import hqloc.optim as optim
from hqloc.classical import baseline_net
from hqloc.data import gen_scenario_standin
from hqloc.train_eval import CompareConfig, TrainConfig, compare_all
from hqloc.train_eval import init_hybrid_model, train

from oracles import circuit_matrix, expect_z_oracle

Gate = namedtuple("Gate", "kind target control angle", defaults=(None, None))

N_QUBITS = 3
HIDDEN = 32


def feature_map_gates(x):
    gates = [Gate("H", q) for q in range(N_QUBITS)]
    gates += [Gate("P", q, angle=2.0 * x[q]) for q in range(N_QUBITS)]
    for i in range(N_QUBITS - 1):
        angle = 2.0 * (math.pi - x[i]) * (math.pi - x[i + 1])
        gates += [Gate("CX", i + 1, i), Gate("P", i + 1, angle=angle), Gate("CX", i + 1, i)]
    return gates


def ansatz_gates(phi):
    gates = [Gate("RY", q, angle=phi[q]) for q in range(N_QUBITS)]
    gates += [Gate("CX", i + 1, i) for i in range(N_QUBITS - 1)]
    gates += [Gate("RY", q, angle=phi[N_QUBITS + q]) for q in range(N_QUBITS)]
    return gates


def expectations(phi, states):
    """(n_rows, 3) Z expectations of every encoded state after the ansatz of ``phi``."""
    unitary = circuit_matrix(ansatz_gates(phi), N_QUBITS)
    return np.array([[expect_z_oracle(unitary @ s, q) for q in range(N_QUBITS)] for s in states])


def unpack(params):
    phi = params[:6]
    w1 = params[6:102].reshape(HIDDEN, N_QUBITS)
    b1 = params[102:134]
    w2 = params[134:198].reshape(2, HIDDEN)
    b2 = params[198:200]
    return phi, w1, b1, w2, b2


def loss_and_grad(params, states, Z):
    phi, w1, b1, w2, b2 = unpack(params)
    n = len(Z)
    E = expectations(phi, states)
    pre = E @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    pred = hidden @ w2.T + b2
    loss = float(np.mean(np.sum((pred - Z) ** 2, axis=1)))
    d_pred = 2.0 * (pred - Z) / n
    d_pre = (d_pred @ w2) * (pre > 0.0)
    d_e = d_pre @ w1
    d_phi = np.empty(6)
    for k in range(6):
        step = np.zeros(6)
        step[k] = math.pi / 2.0
        shift = 0.5 * (expectations(phi + step, states) - expectations(phi - step, states))
        d_phi[k] = np.sum(d_e * shift)
    grad = np.concatenate([
        d_phi, (d_pre.T @ E).ravel(), d_pre.sum(axis=0), (d_pred.T @ hidden).ravel(),
        d_pred.sum(axis=0),
    ])
    return loss, grad


def reference_training(params, X, Z, epochs, eta, optimizer, beta1=0.9, beta2=0.999, eps=1e-8):
    """Pre-update loss of every epoch and the loss after the last update."""
    states = [circuit_matrix(feature_map_gates(x), N_QUBITS)[:, 0] for x in X]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    losses = []
    for t in range(1, epochs + 1):
        loss, grad = loss_and_grad(params, states, Z)
        losses.append(loss)
        if optimizer == "sgd":
            params = params - eta * grad
            continue
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        params = params - eta * m_hat / (np.sqrt(v_hat) + eps)
    return np.array(losses), loss_and_grad(params, states, Z)[0]


# Adam divides each gradient entry by its own running scale, so it hides an
# error that scales a gradient; plain SGD exposes it.
@pytest.mark.parametrize("optimizer, eta", [("adam", 0.05), ("sgd", 0.02)])
def test_training_matches_dense_reference_loop(optimizer, eta):
    rng = np.random.default_rng(17)
    X = rng.uniform(0.0, 1.0, size=(8, 3))
    Z = rng.uniform(0.0, 6.0, size=(8, 2))
    model = init_hybrid_model(seed=3)
    initial = model.params.copy()
    report = train(model, X, Z, TrainConfig(optimizer=optimizer, epochs=20, eta=eta))
    losses, final = reference_training(initial, X, Z, 20, eta, optimizer)
    assert losses[-1] < 0.8 * losses[0]  # the run really trains
    np.testing.assert_allclose(report.loss_per_epoch, losses, rtol=1e-10, atol=0)
    np.testing.assert_allclose(report.final_train_mse, final, rtol=1e-10, atol=0)


def dense_unpack(params, sizes=(3, 128, 64, 2)):
    """(weight, bias) per layer, cut from ``params`` (per layer: weight row-major, then bias)."""
    layers, offset = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        weight = params[offset : offset + n_out * n_in].reshape(n_out, n_in)
        offset += n_out * n_in
        layers.append((weight, params[offset : offset + n_out]))
        offset += n_out
    return layers


def dense_forward(params, X):
    (w1, b1), (w2, b2), (w3, b3) = dense_unpack(params)
    h1 = np.maximum(X @ w1.T + b1, 0.0)
    h2 = np.maximum(h1 @ w2.T + b2, 0.0)
    return h2 @ w3.T + b3


def dense_reference_grad(params, X, Z):
    (w1, b1), (w2, b2), (w3, b3) = dense_unpack(params)
    pre1 = X @ w1.T + b1
    h1 = np.maximum(pre1, 0.0)
    pre2 = h1 @ w2.T + b2
    h2 = np.maximum(pre2, 0.0)
    pred = h2 @ w3.T + b3
    d3 = 2.0 * (pred - Z) / len(Z)
    d2 = (d3 @ w3) * (pre2 > 0.0)
    d1 = (d2 @ w2) * (pre1 > 0.0)
    return np.concatenate([
        (d1.T @ X).ravel(), d1.sum(axis=0), (d2.T @ h1).ravel(), d2.sum(axis=0),
        (d3.T @ h2).ravel(), d3.sum(axis=0),
    ])


def dense_reference_training(params, X, Z, epochs, eta, optimizer, beta1=0.9, beta2=0.999,
                             eps=1e-8):
    """Pre-update losses, the loss after the last update, and the final parameters."""
    def loss(p):
        return float(np.mean(np.sum((dense_forward(p, X) - Z) ** 2, axis=1)))

    m = np.zeros_like(params)
    v = np.zeros_like(params)
    losses = []
    for t in range(1, epochs + 1):
        losses.append(loss(params))
        grad = dense_reference_grad(params, X, Z)
        if optimizer == "sgd":
            params = params - eta * grad
            continue
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad**2
        # Kingma & Ba's efficient form (arXiv:1412.6980, end of section 2).
        alpha = eta * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        eps_hat = eps * math.sqrt(1.0 - beta2**t)
        params = params - alpha * (m / (np.sqrt(v) + eps_hat))
    return np.array(losses), loss(params), params


@pytest.mark.parametrize("optimizer, eta", [("adam", 0.01), ("sgd", 0.01)])
def test_dense_training_matches_numpy_loop_bit_for_bit(optimizer, eta):
    rng = np.random.default_rng(23)
    X = rng.uniform(0.0, 1.0, size=(40, 3))
    Z = rng.uniform(0.0, 6.0, size=(40, 2))
    net = baseline_net(5)
    initial = net.params.copy()
    report = train(net, X, Z, TrainConfig(optimizer=optimizer, epochs=20, eta=eta))
    losses, final, params = dense_reference_training(initial, X, Z, 20, eta, optimizer)
    assert losses[-1] < 0.8 * losses[0]  # the run really trains
    np.testing.assert_array_equal(report.loss_per_epoch, losses)
    assert report.final_train_mse == final
    np.testing.assert_array_equal(net.params, params)


def test_dense_training_makes_one_pass_per_epoch(monkeypatch):
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    def forbidden(*args):
        raise AssertionError("dense training ran a separate backward pass")

    monkeypatch.setattr(classical, "loss_and_grad", counting("pass", classical.loss_and_grad))
    monkeypatch.setattr(classical, "loss", counting("loss", classical.loss))
    monkeypatch.setattr(classical, "forward_batch", counting("forward", classical.forward_batch))
    monkeypatch.setattr(classical, "backward_batch", forbidden)
    rng = np.random.default_rng(29)
    X = rng.uniform(0.0, 1.0, size=(16, 3))
    Z = rng.uniform(0.0, 6.0, size=(16, 2))
    for optimizer in ("adam", "sgd"):
        calls.clear()
        train(baseline_net(1), X, Z, TrainConfig(optimizer=optimizer, epochs=7, eta=0.01))
        # One fused pass per epoch, then one loss forward for the final training MSE.
        assert calls == ["pass"] * 7 + ["loss"]


def test_compare_makes_one_optimizer_step_per_epoch_per_method(monkeypatch):
    # Each method's seeds train as one (S, P) stack: one compare cell makes
    # `epochs` steps per method, not seeds x epochs.
    steps = []
    real_step = optim.adam_step

    def counting(state, params, grads):
        steps.append(params.shape)
        return real_step(state, params, grads)

    monkeypatch.setattr(optim, "adam_step", counting)
    meta, train_s, test_s = gen_scenario_standin("Sc-1", "WiFi", seed=1)
    config = CompareConfig(seeds=(1, 2, 3), epochs=4, shots=16, knn_ks=(1,))
    compare_all(meta, train_s, test_s, config)
    n_baseline, n_hybrid = baseline_net(0).params.size, init_hybrid_model(0).params.size
    assert steps == [(3, n_baseline)] * 4 + [(3, n_hybrid)] * 4
