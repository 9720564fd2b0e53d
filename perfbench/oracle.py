"""Independent reference model for the benchmark's correctness gates.

Written from the model's definition, not from the package: the feature map is
evaluated in closed form (after the Hadamard layer every gate is diagonal, so
each basis amplitude is a phase), the ansatz is one dense 8x8 matrix built
from Kronecker products, and the head, Adam and the baselines are plain numpy.
It shares no code path with ``hqloc``, so a faster kernel in the package is
checked against the same reference as the code it replaces.
"""

from __future__ import annotations

import math

import numpy as np

N_QUBITS = 3
DIM = 2**N_QUBITS
HEAD_SIZES = (3, 32, 2)
BASELINE_SIZES = (3, 128, 64, 2)
SHIFT = math.pi / 2.0

# Bit q of each basis index (qubit 0 is the least significant bit).
_BITS = (np.arange(DIM)[:, None] >> np.arange(N_QUBITS)) & 1
_Z_SIGNS = 1.0 - 2.0 * _BITS


def scale(train_rssi, rssi) -> np.ndarray:
    """Min-max scaling fitted on the training readings, clamped to [0, 1]."""
    lo, hi = train_rssi.min(axis=0), train_rssi.max(axis=0)
    return np.clip((rssi - lo) / (hi - lo), 0.0, 1.0)


def encode(X) -> np.ndarray:
    """Encoded states, one row per feature vector.

    H on every qubit, P(2 x_q) on qubit q, then for each neighbouring pair
    CX / P(2 (pi - x_i)(pi - x_{i+1})) / CX, which is a phase on b_i XOR b_{i+1}.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    phase = 2.0 * X @ _BITS.T
    for i in range(N_QUBITS - 1):
        parity = _BITS[:, i] ^ _BITS[:, i + 1]
        phase += 2.0 * np.outer((np.pi - X[:, i]) * (np.pi - X[:, i + 1]), parity)
    return np.exp(1j * phase) / math.sqrt(DIM)


def _ansatz(phis: np.ndarray) -> np.ndarray:
    """8x8 ansatz matrices RY layer / CX(0,1), CX(1,2) / RY layer, one per row of ``phis``."""
    c, s = np.cos(phis / 2.0), np.sin(phis / 2.0)
    ry = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)  # (k, 6, 2, 2)

    def layer(r):  # kron(r[q2], r[q1], r[q0]): qubit 0 is the least significant bit
        return np.einsum("aij,akl,amn->aikmjln", r[:, 2], r[:, 1], r[:, 0]).reshape(-1, DIM, DIM)

    return layer(ry[:, N_QUBITS:]) @ _CX_CHAIN @ layer(ry[:, :N_QUBITS])


def _cx(control: int, target: int) -> np.ndarray:
    m = np.zeros((DIM, DIM))
    for j in range(DIM):
        m[j ^ (1 << target) if (j >> control) & 1 else j, j] = 1.0
    return m


_CX_CHAIN = _cx(1, 2) @ _cx(0, 1)


def expectations(states: np.ndarray, phis) -> np.ndarray:
    """Z expectations on qubits 0..2, shape (len(phis), len(states), 3)."""
    amps = np.einsum("ked,nd->kne", _ansatz(np.atleast_2d(phis)), states)
    return np.clip((amps.real**2 + amps.imag**2) @ _Z_SIGNS, -1.0, 1.0)


def forward_and_jacobian(states: np.ndarray, phi):
    """Expectations (n, 3) and d E_j / d phi_k by the two-point shift rule, (n, 3, 6)."""
    shifts = SHIFT * np.eye(phi.size)
    e = expectations(states, np.vstack([phi, phi + shifts, phi - shifts]))
    plus, minus = e[1 : 1 + phi.size], e[1 + phi.size :]
    return e[0], 0.5 * np.transpose(plus - minus, (1, 2, 0))


def glorot(sizes, rng) -> list[list[np.ndarray]]:
    """[[W, b], ...] with W uniform in +-sqrt(6 / (fan_in + fan_out)), b zero."""
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append([rng.uniform(-bound, bound, size=(fan_out, fan_in)), np.zeros(fan_out)])
    return layers


def net_forward(layers, V) -> np.ndarray:
    for i, (w, b) in enumerate(layers):
        V = V @ w.T + b
        if i < len(layers) - 1:
            V = np.maximum(V, 0.0)
    return V


def net_backward(layers, V, upstream):
    """Per-layer gradients flattened as (W, b) pairs, and the input gradients."""
    acts, pre = [V], []
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    parts = []
    delta = upstream
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1:
            delta = delta * (pre[i] > 0.0)
        parts[:0] = [(delta.T @ acts[i]).ravel(), delta.sum(axis=0)]
        delta = delta @ layers[i][0]
    return np.concatenate(parts), delta


def _flat(layers) -> np.ndarray:
    return np.concatenate([a.ravel() for layer in layers for a in layer])


def _unflat(layers, vec) -> None:
    offset = 0
    for layer in layers:
        for j, a in enumerate(layer):
            layer[j] = vec[offset : offset + a.size].reshape(a.shape)
            offset += a.size


class Model:
    """Hybrid model (6 angles + 3-32-2 head) or, with ``phi=None``, a dense net."""

    def __init__(self, phi, layers):
        self.phi = phi
        self.layers = layers

    @classmethod
    def hybrid(cls, seed: int) -> "Model":
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-np.pi, np.pi, size=2 * N_QUBITS)
        return cls(phi, glorot(HEAD_SIZES, rng))

    @classmethod
    def baseline(cls, seed: int) -> "Model":
        return cls(None, glorot(BASELINE_SIZES, np.random.default_rng(seed)))

    def params(self) -> np.ndarray:
        head = _flat(self.layers)
        return head if self.phi is None else np.concatenate([self.phi, head])

    def set_params(self, vec) -> None:
        if self.phi is not None:
            self.phi, vec = vec[: self.phi.size].copy(), vec[self.phi.size :]
        _unflat(self.layers, vec)

    def head_input(self, X) -> np.ndarray:
        return X if self.phi is None else expectations(encode(X), self.phi)[0]

    def predict(self, X) -> np.ndarray:
        return net_forward(self.layers, self.head_input(np.atleast_2d(X)))

    def grad(self, X, Z, states=None) -> np.ndarray:
        if self.phi is None:
            inputs, jac = X, None
        else:
            inputs, jac = forward_and_jacobian(states, self.phi)
        preds = net_forward(self.layers, inputs)
        head_grad, input_grad = net_backward(self.layers, inputs, 2.0 * (preds - Z) / len(X))
        if jac is None:
            return head_grad
        return np.concatenate([np.einsum("nj,njk->k", input_grad, jac), head_grad])


def train(model: Model, X, Z, epochs: int = 300, eta: float = 0.001) -> float:
    """Full-batch Adam (beta 0.9 / 0.999, eps 1e-8); returns the final train MSE."""
    states = None if model.phi is None else encode(X)
    params = model.params()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t in range(1, epochs + 1):
        g = model.grad(X, Z, states)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g**2
        params = params - eta * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        model.set_params(params)
    return mse(model.predict(X), Z)


def mse(pred, truth) -> float:
    return float(np.mean(np.sum((pred - truth) ** 2, axis=1)))


def rmse(pred, truth) -> float:
    return math.sqrt(mse(pred, truth))


def knn_predict(F, T, Xq, k: int) -> np.ndarray:
    dists = ((Xq[:, None, :] - F[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return T[order].mean(axis=1)


def fingerprint_predict(F, T, Xq) -> np.ndarray:
    fids = np.abs(encode(Xq) @ encode(F).conj().T) ** 2
    return T[np.argmax(fids, axis=1)]


def compare_cell(train_raw, test_raw, seeds=(1, 2, 3), knn_ks=(1, 3, 5), epochs=300):
    """Reference RMSE of every exact method on one cell, keyed by (method, seed).

    ``train_raw`` / ``test_raw`` are (n, 5) arrays of rssi_a, rssi_b, rssi_c, x, y.
    Seed keys are strings as they appear in ``comparison.csv``.
    """
    X = scale(train_raw[:, :3], train_raw[:, :3])
    Xt = scale(train_raw[:, :3], test_raw[:, :3])
    Z, Zt = train_raw[:, 3:], test_raw[:, 3:]
    ref = {}
    for method, make in (("classical_nn", Model.baseline), ("hqnn_exact", Model.hybrid)):
        values = []
        for seed in seeds:
            model = make(seed)
            train(model, X, Z, epochs)
            values.append(rmse(model.predict(Xt), Zt))
            ref[(method, str(seed))] = values[-1]
        ref[(method, "mean")] = float(np.mean(values))
    knn = [rmse(knn_predict(X, Z, Xt, k), Zt) for k in knn_ks if k <= len(X)]
    ref[("knn", "")] = min(knn)
    ref[("quantum_fingerprint", "")] = rmse(fingerprint_predict(X, Z, Xt), Zt)
    return ref
