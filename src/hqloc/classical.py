"""Dense classical layers with ReLU: batched forward and backprop, MSE loss.

Two network shapes are used by the toolkit: the small regression head sitting
on top of the quantum layer (3 -> 32 -> 2) and the wider standalone baseline
network (3 -> 128 -> 64 -> 2). Output layers are always linear because the
targets are coordinates in meters. Forward and backward passes take a batch
of rows; :func:`forward` is the batch-of-one case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "linear")

HEAD_SIZES = (3, 32, 2)
BASELINE_SIZES = (3, 128, 64, 2)


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (out, in) with matching bias length")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNet:
    layers: list[DenseLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")
        if self.layers and self.layers[-1].activation != "linear":
            raise ValueError("output layer must be linear")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def glorot_net(sizes, rng, hidden_activation: str = "relu") -> DenseNet:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    ``rng`` is a numpy Generator or an integer seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        activation = "linear" if i == len(sizes) - 2 else hidden_activation
        layers.append(DenseLayer(weight, np.zeros(fan_out), activation))
    return DenseNet(layers)


def hqnn_head(rng) -> DenseNet:
    """Regression head for the hybrid model: 3 -> 32 (ReLU) -> 2 (linear)."""
    return glorot_net(HEAD_SIZES, rng)


def baseline_net(rng) -> DenseNet:
    """Standalone classical baseline: 3 -> 128 (ReLU) -> 64 (ReLU) -> 2 (linear)."""
    return glorot_net(BASELINE_SIZES, rng)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def forward_batch(net: DenseNet, V) -> np.ndarray:
    """Forward pass over a whole (n_samples, input_dim) batch at once."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (n, {net.input_dim}), got {V.shape}")
    for layer in net.layers:
        # Bias and ReLU act in place, so a large batch holds one array per layer.
        V = V @ layer.weight.T
        V += layer.bias
        if layer.activation == "relu":
            np.maximum(V, 0.0, out=V)
    return V


def forward(net: DenseNet, v) -> np.ndarray:
    """Forward pass for one input vector: a batch of one."""
    v = np.asarray(v, dtype=float)
    if v.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},), got {v.shape}")
    return forward_batch(net, v[None])[0]


def backward_batch(
    net: DenseNet, V, upstream
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Exact reverse mode over a batch: per-layer (dW, db) summed over the rows.

    ``upstream`` holds dL/d(output) per row. Returns the (dW, db) pairs aligned
    with ``net.layers`` plus the per-row gradients with respect to the inputs.
    The ReLU subgradient at exactly 0 is taken as 0.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (n, {net.input_dim}), got {V.shape}")
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (V.shape[0], net.output_dim):
        raise ValueError(
            f"expected upstream of shape ({V.shape[0]}, {net.output_dim}), "
            f"got {upstream.shape}"
        )
    inputs = [V]
    pre_acts = []
    a = V
    for layer in net.layers:
        z = a @ layer.weight.T + layer.bias
        pre_acts.append(z)
        a = _activate(z, layer.activation)
        inputs.append(a)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    delta = upstream
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.activation == "relu":
            delta = delta * (pre_acts[i] > 0.0)
        grads[i] = (delta.T @ inputs[i], delta.sum(axis=0))
        delta = delta @ layer.weight
    return grads, delta


def mse_loss(pred, truth) -> float:
    """Mean over samples of the squared Euclidean coordinate error (m^2)."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape[0] == 0:
        raise ValueError("mse_loss needs at least one sample")
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(np.sum((pred - truth) ** 2, axis=1)))


def net_num_params(net: DenseNet) -> int:
    return sum(layer.weight.size + layer.bias.size for layer in net.layers)


def net_param_vector(net: DenseNet) -> np.ndarray:
    """Flatten all weights and biases, layer by layer (weight then bias)."""
    parts = []
    for layer in net.layers:
        parts.append(layer.weight.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts)


def set_net_params(net: DenseNet, vec: np.ndarray) -> None:
    """Write a flat parameter vector back into the network, in place."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (net_num_params(net),):
        raise ValueError(
            f"expected {net_num_params(net)} parameters, got shape {vec.shape}"
        )
    offset = 0
    for layer in net.layers:
        w_size = layer.weight.size
        layer.weight = vec[offset : offset + w_size].reshape(layer.weight.shape).copy()
        offset += w_size
        b_size = layer.bias.size
        layer.bias = vec[offset : offset + b_size].copy()
        offset += b_size


def grads_to_vector(grads) -> np.ndarray:
    """Flatten per-layer (dW, db) pairs in the same order as net_param_vector."""
    parts = []
    for dw, db in grads:
        parts.append(dw.ravel())
        parts.append(db)
    return np.concatenate(parts)
