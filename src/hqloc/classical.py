"""Dense classical layers with ReLU: batched forward and backprop, MSE loss.

Two network shapes are used by the toolkit: the small regression head sitting
on top of the quantum layer (3 -> 32 -> 2) and the wider standalone baseline
network (3 -> 128 -> 64 -> 2). Output layers are always linear because the
targets are coordinates in meters. Every pass takes a batch of rows; a
single input is a batch of one.

A network owns one flat ``params`` vector laid out per layer as the weight
(row-major) then the bias; each layer's ``weight`` and ``bias`` are views into
it, cut by :func:`layer_views`. :func:`loss_and_grad` returns its parameter
gradient in the same layout, so an optimizer updates ``params`` in place.

:func:`stack` turns S networks of one shape into one network with a leading
seed axis: its ``params`` is (S, P), row s a copy of network s's vector, its
weights are (S, out, in) and its biases (S, out). A network and a stack run
the same lines: every pass works on the trailing axes only, and
``np.matmul`` and broadcasting carry the seed axis when it is there, one
matrix product per network. A batch may be shared by the stack, (n, in), or
have one slice per network, (S, n, in). Network s of a stack computes bit for
bit what it computes alone; losses and gradients gain the leading axis.

One forward trace keeps every layer's input and output, and one backprop of
the MSE reads it. Three passes against targets share one checked trace, which
also gives the prediction minus the targets: :func:`loss` returns the MSE
alone, :func:`loss_and_grad` the MSE, the parameter gradient and the input
gradients, and :func:`mse_grad` the two gradients alone, with no MSE reduced.
So a training epoch runs the network once for its gradient. Backprop writes
each layer's gradient into its views of one ``params``-layout array.

The layouts a pass reads depend on the network alone, so
:meth:`DenseNet.bind` builds them once per bind, as the network's
``views``: each layer's transposed weight and (1, out) bias row, views of
``params`` that follow its in-place updates, and its ReLU flag. Every pass,
fresh or buffered, runs one loop over them.

Backprop has one buffer mode: it writes its ReLU masks, input gradients and
parameter gradient with numpy's ``out=`` into a :class:`Workspace`, which
holds those buffers and the gradient's layer views, cut once. A training
loop builds one per run, for a baseline network or a hybrid model's head.
The workspace also holds the shapes of the batches it takes, so the three
passes check their arguments with one shape compare each and write every
epoch's layer outputs and gradients into it: a stack's (S, n, 128)-sized
arrays are not made anew each epoch. A forward pass alone
(:func:`forward_batch`, so each live fix) builds no workspace and writes
fresh arrays.
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
    weight: np.ndarray  # (out, in); (S, out, in) in a stack of S networks
    bias: np.ndarray  # (out,); (S, out) in a stack
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim not in (2, 3) or self.bias.shape != self.weight.shape[:-1]:
            raise ValueError("weight must be (out, in) with matching bias length")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class DenseNet:
    layers: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False)
    # Per layer: the weight transposed, (in, out) or (S, in, out), the bias as
    # one (1, out) or (S, 1, out) row, both views of ``params``, and whether
    # the layer is ReLU. Built by :meth:`bind`, read by every pass.
    views: list[tuple[np.ndarray, np.ndarray, bool]] = field(init=False, repr=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            # Each input width is the previous output width, in one stack size throughout.
            if nxt.weight.shape[:-2] + nxt.weight.shape[-1:] != prev.weight.shape[:-1]:
                raise ValueError("adjacent layer dimensions do not chain")
        if self.layers and self.layers[-1].activation != "linear":
            raise ValueError("output layer must be linear")
        self.bind(np.empty(_params_shape(self)))

    def bind(self, params: np.ndarray) -> None:
        """Copy the current weights into ``params`` and make the layers views of it.

        Also builds :attr:`views` from the new views, once per bind; an
        in-place update of ``params`` shows through them.
        """
        for layer, (weight, bias) in zip(self.layers, layer_views(self, params)):
            weight[...] = layer.weight
            bias[...] = layer.bias
            layer.weight, layer.bias = weight, bias
        self.params = params
        self.views = [(layer.weight.swapaxes(-1, -2), layer.bias[..., None, :],
                       layer.activation == "relu") for layer in self.layers]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]


def _params_shape(net: DenseNet) -> tuple[int, ...]:
    """(P,) for one network, (S, P) for a stack of S."""
    lead = net.layers[0].weight.shape[:-2] if net.layers else ()
    return (*lead, sum(layer.bias.shape[-1] * (layer.weight.shape[-1] + 1) for layer in net.layers))


def layer_views(net: DenseNet, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into ``flat``, one pair per layer of ``net``, in ``params`` layout."""
    shape = _params_shape(net)
    if flat.shape != shape:
        expected = " x ".join(map(str, shape))
        raise ValueError(f"expected {expected} parameters, got shape {flat.shape}")
    views = []
    offset = 0
    for layer in net.layers:
        n_out, n_in = layer.weight.shape[-2:]
        weight = flat[..., offset : offset + n_out * n_in].reshape(*shape[:-1], n_out, n_in)
        offset += n_out * n_in
        views.append((weight, flat[..., offset : offset + n_out]))
        offset += n_out
    return views


@dataclass(frozen=True)
class Workspace:
    """What one pass of a network over ``n`` rows reads and writes, built once.

    ``params`` is the network's parameter vector as bound when the workspace
    was built; the weights and biases a pass reads are the network's own
    :attr:`DenseNet.views`. Layer i has its output, (n, out) or (S, n, out) in
    a stack; where that output is > 0, for a ReLU layer (None for a linear
    one); and the product of its weight with the gradient reaching it, which
    is the gradient with respect to its input, (n, in) or (S, n, in). Backprop
    masks that product in place for the ReLU layer below. ``batch_shapes``
    holds the batch shapes a pass accepts, ``grad`` a parameter gradient in
    ``params`` layout and ``grad_views`` its :func:`layer_views`. A pass given
    a workspace returns these buffers or views of them, which the next pass
    overwrites.
    """

    params: np.ndarray
    batch_shapes: tuple[tuple[int, ...], ...]
    outs: list[np.ndarray]
    masks: list[np.ndarray | None]
    deltas: list[np.ndarray]
    grad: np.ndarray
    grad_views: list[tuple[np.ndarray, np.ndarray]]


def workspace(net: DenseNet, n_rows: int, grad: np.ndarray | None = None) -> Workspace:
    """Buffers for :func:`loss_and_grad` on ``net`` over batches of ``n_rows`` rows.

    ``grad``, if given, is the ``params``-layout array the gradient goes into,
    such as a view of a larger joint gradient.
    """
    grad = np.empty(_params_shape(net)) if grad is None else grad
    lead = grad.shape[:-1]
    outs = [np.empty((*lead, n_rows, layer.weight.shape[-2])) for layer in net.layers]
    return Workspace(
        net.params,
        tuple({(n_rows, net.input_dim), (*lead, n_rows, net.input_dim)}),
        outs,
        [np.empty(out.shape, dtype=bool) if layer.activation == "relu" else None
         for layer, out in zip(net.layers, outs)],
        [np.empty((*lead, n_rows, layer.weight.shape[-1])) for layer in net.layers],
        grad,
        layer_views(net, grad),
    )


def stack(nets) -> DenseNet:
    """One network holding ``nets`` as a stack; its ``params`` row s copies ``nets[s].params``."""
    layouts = {tuple((lay.weight.shape, lay.activation) for lay in net.layers) for net in nets}
    if len(layouts) != 1:
        raise ValueError("a stack holds networks of one shape")
    return DenseNet([
        DenseLayer(np.stack([net.layers[i].weight for net in nets]),
                   np.stack([net.layers[i].bias for net in nets]), layer.activation)
        for i, layer in enumerate(nets[0].layers)
    ])


def glorot_net(sizes, rng) -> DenseNet:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases; ReLU hidden layers.

    ``rng`` is a numpy Generator or an integer seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        activation = "linear" if i == len(sizes) - 2 else "relu"
        layers.append(DenseLayer(weight, np.zeros(fan_out), activation))
    return DenseNet(layers)


def hqnn_head(rng) -> DenseNet:
    """Regression head for the hybrid model: 3 -> 32 (ReLU) -> 2 (linear)."""
    return glorot_net(HEAD_SIZES, rng)


def baseline_net(rng) -> DenseNet:
    """Standalone classical baseline: 3 -> 128 (ReLU) -> 64 (ReLU) -> 2 (linear)."""
    return glorot_net(BASELINE_SIZES, rng)


def _check_batch(net: DenseNet, V: np.ndarray) -> None:
    if V.ndim not in (2, net.layers[0].weight.ndim) or V.shape[-1] != net.input_dim:
        raise ValueError(f"expected batch of shape (n, {net.input_dim}), got {V.shape}")


def _trace(net: DenseNet, V, work: Workspace | None = None) -> list[np.ndarray]:
    """Each layer's input and, last, the network output, for an (n, input_dim) batch.

    A stack also takes an (S, n, input_dim) batch. Every pass reads the
    network's :attr:`DenseNet.views`. Without ``work``, each layer's product
    is a fresh array, and the batch is checked here. With it, the caller has
    checked the batch against ``work``, and the products are written into
    ``work``'s buffers. Bias and ReLU act on each product in place. A ReLU
    output is > 0 exactly where its pre-activation is, so backprop reads each
    ReLU mask off the stored outputs.
    """
    if work is None:
        V = np.asarray(V, dtype=float)
        _check_batch(net, V)
    acts = [V]
    for i, (weight_t, bias_row, relu) in enumerate(net.views):
        V = np.matmul(V, weight_t, out=None if work is None else work.outs[i])
        V += bias_row
        if relu:
            np.maximum(V, 0.0, out=V)
        acts.append(V)
    return acts


def _checked_trace(net: DenseNet, V, Z, work: Workspace):
    """The trace of :func:`_trace` into ``work``'s buffers, and the prediction minus ``Z``.

    Checks the batch and the targets against ``work``'s shapes first. The
    three buffered passes share it; only :func:`loss` and :func:`loss_and_grad`
    reduce the difference to the MSE.
    """
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if net.params is not work.params:
        raise ValueError("the workspace was built for another network")
    rows, outputs = work.outs[-1].shape[-2:]
    if V.shape not in work.batch_shapes:
        _check_batch(net, V)
        raise ValueError(
            f"expected a batch of {rows} rows, as the workspace was built for, got shape {V.shape}"
        )
    if Z.shape != (rows, outputs):
        raise ValueError(f"expected targets of shape {(rows, outputs)}, got {Z.shape}")
    if not len(Z):
        raise ValueError("loss_and_grad needs at least one sample")
    acts = _trace(net, V, work)
    return acts, acts[-1] - Z


def _backprop(net: DenseNet, acts: list[np.ndarray], diff: np.ndarray, work: Workspace):
    """Parameter gradient (``params`` layout) and input gradients of the MSE from a forward trace.

    ``diff`` is the prediction minus the targets; the MSE's upstream gradient
    2 * ``diff`` / n is scaled in place in it. The parameter gradient is
    written into ``work``'s gradient through its views, the masks and deltas
    into ``work``'s buffers. The ReLU subgradient at exactly 0 is taken as 0.
    """
    diff *= 2.0
    diff /= diff.shape[-2]
    delta = diff
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        weight_grad, bias_grad = work.grad_views[i]
        if layer.activation == "relu":
            # The output layer is linear, so delta here is the product the
            # layer above wrote, never ``diff``: it is masked in place.
            mask = np.greater(acts[i + 1], 0.0, out=work.masks[i])
            np.multiply(delta, mask, out=delta)
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=weight_grad)
        np.add.reduce(delta, axis=-2, out=bias_grad)  # ndarray.sum's reduce, called directly
        delta = np.matmul(delta, layer.weight, out=work.deltas[i])
    return work.grad, delta


def forward_batch(net: DenseNet, V) -> np.ndarray:
    """Forward pass over a whole (n_samples, input_dim) batch at once."""
    return _trace(net, V)[-1]


def loss(net: DenseNet, V, Z, work: Workspace):
    """``mse_loss(forward_batch(net, V), Z)`` bit for bit, from a forward pass into ``work``.

    It checks and refuses what :func:`loss_and_grad` does, and overwrites
    ``work``'s layer outputs but not its gradients. Returns the MSE alone.
    """
    return mean_squared_norm(_checked_trace(net, V, Z, work)[1])


def loss_and_grad(net: DenseNet, V, Z, work: Workspace) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch MSE against targets ``Z`` and its gradients, from one forward pass.

    Returns the loss, the flat parameter gradient and the per-row input
    gradients; the loss equals ``mse_loss(forward_batch(net, V), Z)`` bit for
    bit. A stack shares the targets and returns an (S,) array of losses. The
    pass writes into ``work``'s buffers (:func:`workspace`) and returns views
    of them, which the next pass into ``work`` overwrites. ``V`` must have the
    workspace's row count, and ``Z`` its (n, out) shape; ValueError otherwise,
    or when ``work`` was built for another network or for no rows.
    """
    acts, diff = _checked_trace(net, V, Z, work)
    return (mean_squared_norm(diff), *_backprop(net, acts, diff, work))


def mse_grad(net: DenseNet, V, Z, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """:func:`loss_and_grad` without the loss: the parameter and per-row input gradients.

    The same checked pass, bit for bit the same gradients into the same
    buffers, with no MSE reduced. A training loop that takes its loss from
    a forward of its own (a hybrid model's, :func:`loss`) runs this one.
    """
    return _backprop(net, *_checked_trace(net, V, Z, work), work)


def mean_squared_norm(diff: np.ndarray):
    """:func:`mse_loss` of an unchecked (n, 2) or (S, n, 2) float difference, without wrappers."""
    return np.add.reduce(np.add.reduce(diff**2, axis=-1), axis=-1) / diff.shape[-2]


def mse_loss(pred, truth):
    """Mean over samples of the squared Euclidean coordinate error (m^2).

    ``pred`` may be an (S, n, 2) stack against shared (n, 2) ``truth``; the
    result is then an (S,) array, one loss per network.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape[-2] == 0:
        raise ValueError("mse_loss needs at least one sample")
    if pred.shape[-2:] != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return mean_squared_norm(pred - truth)
