"""Dense classical layers with ReLU: batched forward and backprop, MSE loss.

Two network shapes are used by the toolkit: the small regression head sitting
on top of the quantum layer (3 -> 32 -> 2) and the wider standalone baseline
network (3 -> 128 -> 64 -> 2). Output layers are always linear because the
targets are coordinates in meters. Forward and backward passes take a batch
of rows; :func:`forward` is the batch-of-one case.

A network owns one flat ``params`` vector laid out per layer as the weight
(row-major) then the bias; each layer's ``weight`` and ``bias`` are views into
it, cut by :func:`layer_views`. :func:`backward_batch` returns its parameter
gradient in the same layout, so an optimizer updates ``params`` in place.

One forward trace keeps every layer's input and output, and one backprop reads
it: :func:`backward_batch` runs both for a given upstream gradient, and
:func:`loss_and_grad` takes the MSE and its gradient from a single forward
pass, so a training epoch runs the network once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")
        if self.layers and self.layers[-1].activation != "linear":
            raise ValueError("output layer must be linear")
        self.bind(np.empty(sum(layer.weight.size + layer.bias.size for layer in self.layers)))

    def bind(self, params: np.ndarray) -> None:
        """Copy the current weights into ``params`` and make the layers views of it."""
        for layer, (weight, bias) in zip(self.layers, layer_views(self, params)):
            weight[...] = layer.weight
            bias[...] = layer.bias
            layer.weight, layer.bias = weight, bias
        self.params = params

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def layer_views(net: DenseNet, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into ``flat``, one pair per layer of ``net``, in ``params`` layout."""
    size = sum(layer.weight.size + layer.bias.size for layer in net.layers)
    if flat.shape != (size,):
        raise ValueError(f"expected {size} parameters, got shape {flat.shape}")
    views = []
    offset = 0
    for layer in net.layers:
        n_out, n_in = layer.weight.shape
        weight = flat[offset : offset + n_out * n_in].reshape(n_out, n_in)
        offset += n_out * n_in
        views.append((weight, flat[offset : offset + n_out]))
        offset += n_out
    return views


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


def _trace(net: DenseNet, V) -> list[np.ndarray]:
    """Each layer's input and, last, the network output, for an (n, input_dim) batch.

    Bias and ReLU act in place on each layer's fresh product. A ReLU output is
    > 0 exactly where its pre-activation is, so backprop reads each ReLU mask
    off the stored outputs.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != net.input_dim:
        raise ValueError(f"expected batch of shape (n, {net.input_dim}), got {V.shape}")
    acts = [V]
    for layer in net.layers:
        V = V @ layer.weight.T
        V += layer.bias
        if layer.activation == "relu":
            np.maximum(V, 0.0, out=V)
        acts.append(V)
    return acts


def _backprop(net: DenseNet, acts: list[np.ndarray], upstream: np.ndarray):
    """Parameter gradient (``params`` layout) and input gradients from a forward trace.

    The ReLU subgradient at exactly 0 is taken as 0; ``upstream`` is not modified.
    """
    grad = np.empty_like(net.params)
    grad_views = layer_views(net, grad)
    delta = upstream
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.activation == "relu":
            delta = delta * (acts[i + 1] > 0.0)
        grad_weight, grad_bias = grad_views[i]
        np.matmul(delta.T, acts[i], out=grad_weight)
        delta.sum(axis=0, out=grad_bias)
        delta = delta @ layer.weight
    return grad, delta


def forward_batch(net: DenseNet, V) -> np.ndarray:
    """Forward pass over a whole (n_samples, input_dim) batch at once."""
    return _trace(net, V)[-1]


def forward(net: DenseNet, v) -> np.ndarray:
    """Forward pass for one input vector: a batch of one."""
    v = np.asarray(v, dtype=float)
    if v.shape != (net.input_dim,):
        raise ValueError(f"expected input of shape ({net.input_dim},), got {v.shape}")
    return forward_batch(net, v[None])[0]


def backward_batch(net: DenseNet, V, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse mode over a batch: the parameter gradient summed over the rows.

    ``upstream`` holds dL/d(output) per row. Returns the flat gradient, laid
    out like ``net.params``, plus the per-row gradients with respect to the
    inputs. The ReLU subgradient at exactly 0 is taken as 0.
    """
    acts = _trace(net, V)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != acts[-1].shape:
        raise ValueError(
            f"expected upstream of shape {acts[-1].shape}, got {upstream.shape}"
        )
    return _backprop(net, acts, upstream)


def loss_and_grad(net: DenseNet, V, Z) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch MSE against targets ``Z`` and its gradients, from one forward pass.

    Returns the loss, the flat parameter gradient and the per-row input
    gradients. They equal ``mse_loss(forward_batch(net, V), Z)`` and
    ``backward_batch(net, V, 2 * (pred - Z) / n)`` bit for bit.
    """
    acts = _trace(net, V)
    pred = acts[-1]
    Z = np.asarray(Z, dtype=float)
    if Z.shape != pred.shape:
        raise ValueError(f"expected targets of shape {pred.shape}, got {Z.shape}")
    if len(pred) == 0:
        raise ValueError("loss_and_grad needs at least one sample")
    diff = pred - Z
    loss = _mean_squared_norm(diff)
    diff *= 2.0
    diff /= len(diff)
    return (loss, *_backprop(net, acts, diff))


def _mean_squared_norm(diff: np.ndarray) -> float:
    # np.mean's own sum and division, without its per-call overhead.
    return float(np.sum(diff**2, axis=1).sum() / len(diff))


def mse_loss(pred, truth) -> float:
    """Mean over samples of the squared Euclidean coordinate error (m^2)."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape[0] == 0:
        raise ValueError("mse_loss needs at least one sample")
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return _mean_squared_norm(pred - truth)
