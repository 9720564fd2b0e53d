"""Hybrid model assembly, the training loop, evaluation, and method comparison.

The hybrid model is the quantum layer (6 trainable angles) followed by the
classical regression head (3 -> 32 -> 2), for 200 trainable parameters total.
The model owns them as one flat ``params`` vector, the angles first and then
the head's ``params`` layout; phi and every head weight and bias are views
into it. Training is full batch: each epoch makes one loss-and-gradient
pass, which gives the pre-update MSE and the joint gradient (reverse mode
through the head, shift rule through the quantum layer) in that same layout,
then writes one optimizer step into ``params`` in place. A dense network's
pass is one forward and one backward run of :func:`classical.loss_and_grad`,
which returns the MSE and both gradients. A hybrid model's gradient pass
runs its head through :func:`classical.mse_grad`, which returns the
parameter and input gradients alone, and its MSE comes from a loss forward
through :func:`classical.loss`, which returns the MSE alone.

There is one training loop, :func:`train_stack`. It trains S models of one
kind under one :class:`TrainConfig` as one stack with a leading seed axis:
their vectors become the rows of one (S, P) ``params`` array, the stacked
quantum layer holds phi as (S, 6), and each epoch makes one kernel call per
forward or Jacobian over all S models, one ``np.matmul`` chain through the
stacked head or network, one contraction of phi's gradient, and one optimizer
step over (S, P). Each model computes bit for bit what it computes alone. A
stack whose loss or gradient turns non-finite for any model stops there, and
each of its models trains alone, so each result is still what its solo run
gives. :func:`train` is the stack of one, which is the model itself with no
seed axis, and :func:`compare_all` trains each method's seeds as one stack
and runs each baseline's predictor once over the whole test matrix.

Training never sees a test set. Evaluation is a separate, batched step on
the trained model: :func:`evaluate_rmse` calls its predictor once on the
whole test matrix, and :func:`hqnn_forward_batch` runs each block of up to
4096 rows through one exact quantum kernel pass and one head pass, into one
output. Given a shot budget and a seed, it samples the exact expectations in
between, the only sampled path: each row's draws are keyed once, on the seed
and the row's scaled features. The trained model is the same in both cases.

A training run picks its optimizer step once, Adam or SGD, and builds its
state once: for Adam, one :class:`optim.AdamState` (moments and scratch, with
Kingma & Ba's fixed betas and epsilon), which every step advances in place,
and for either, the :class:`classical.Workspace` of a dense network or a
hybrid model's head: its layer buffers and its gradient buffer. The
transposed weights and bias rows every pass reads are the network's own
views, built when its parameters are bound, and phi's C and dC come from the
quantum layer's compile cache. A hybrid run's gradient buffer
is the head's part of one (S, 200) joint gradient, and each epoch's einsum
writes phi's part of it in place, so nothing joins the two. Every epoch
writes into these and steps ``params`` in place, so an epoch after the first
allocates no array of 128 KiB or more (a 3-seed 3-128-64-2 stack's arrays
are 75-213 KB each), and glibc does not unmap and fault in such blocks every
epoch. Each epoch runs one buffered gradient pass, which checks its batch
and targets against the workspace's shapes: :func:`classical.loss_and_grad`
for a dense network, :func:`classical.mse_grad` for a hybrid head. A hybrid
epoch makes two exact forwards, one Jacobian, one head pass and one step:
the run computes its rows' Pauli features once, all three kernel calls read
phi's compile from the quantum layer's cache, and the loss forward runs the
head through :func:`classical.loss` into the same workspace. Its fresh
arrays are the compile, the forwards' outputs, the (S, n, 3, 6) Jacobian and
the loss's squares, a few KiB per stack.

Exact predictions depend on the batch a row is in: BLAS takes other paths for
matrix products of other sizes, so a row's prediction may move between
batch sizes by up to 1e-15 of the outputs' size (the largest magnitude among
them, so a few ulp of it), while a rerun of the same batch gives the same
bits. Training always runs its whole training set as one batch, so its
outputs are the same bytes on every rerun.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import baselines, classical, data, optim
from .circuits import N_ANSATZ_PARAMS, N_FEATURES, check_features, check_finite, feature_state
from .qlayer import QuantumLayer, encode_batch, pauli_features, q_forward_batch, q_gradient_batch
from .statevector import check_integer, check_seed, check_shots, sample_batch

OPTIMIZERS = ("adam", "sgd")


@dataclass
class HybridModel:
    """Quantum layer then head; a stacked layer and head make a stack of S models."""

    qlayer: QuantumLayer
    head: classical.DenseNet
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.concatenate([self.qlayer.phi, self.head.params], axis=-1)
        n_angles = self.qlayer.phi.shape[-1]
        self.qlayer.phi = self.params[..., :n_angles]
        self.head.bind(self.params[..., n_angles:])


def init_hybrid_model(seed: int = 0) -> HybridModel:
    """Seeded fresh model: ansatz angles uniform in [-pi, pi], Glorot head."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-np.pi, np.pi, size=N_ANSATZ_PARAMS)
    return HybridModel(qlayer=QuantumLayer(phi=phi), head=classical.hqnn_head(rng))


def hqnn_forward(model: HybridModel, x) -> np.ndarray:
    """Predicted (x, y) coordinates in meters for one scaled feature vector.

    A stack of S models gives (S, 2): row s is bit for bit model s's own fix.
    The fix agrees with its row of :func:`hqnn_forward_batch` to 1e-15 of the
    outputs' size, but not bit for bit: the row encodes to the same bytes,
    and a one-row matrix product then takes another BLAS path than a batch's.
    """
    rows = feature_state(check_features(x, N_FEATURES))[None]
    U = q_forward_batch(model.qlayer, pauli_features(rows))
    return classical.forward_batch(model.head, U)[..., 0, :]


# Rows evaluated at once. A block's intermediates take ~800 B a row, so a
# large survey costs a few MiB beyond its output, and inputs of up to this many
# rows, every benchmark input among them, run as one block.
_BLOCK_ROWS = 4096


def hqnn_forward_batch(
    model: HybridModel, X, shots: int | None = None, seed: int = 0
) -> np.ndarray:
    """Predicted (x, y) for every row of ``X``; with ``shots``, from sampled expectations.

    Rows run in blocks of :data:`_BLOCK_ROWS`, each written into one output,
    so the memory a call takes beyond its output does not grow with the row
    count. A row's exact prediction may differ between batch (or block)
    sizes by up to 1e-15 of the outputs' size, as :func:`hqnn_forward`'s
    does from its row here, because BLAS takes other paths for products of
    other sizes; the same batch gives the same bits on every rerun. Sampled
    draws are keyed by row, so blocks do not move them.
    """
    X = np.atleast_2d(check_features(X, N_FEATURES))
    check_finite("features", X)  # a refusal names rows of X, not of a block
    out = np.empty((*model.params.shape[:-1], len(X), model.head.output_dim))
    for start in range(0, max(len(X), 1), _BLOCK_ROWS):  # zero rows still check shots and seed
        rows = X[start:start + _BLOCK_ROWS]
        U = q_forward_batch(model.qlayer, pauli_features(encode_batch(rows)))
        if shots is not None:  # each row's draws are keyed on its scaled features
            U = sample_batch(U, rows, shots=shots, seed=seed)
        out[..., start:start + len(rows), :] = classical.forward_batch(model.head, U)
    return out


def _batch(X, Z, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``Z`` as 2-D float arrays; refuses an empty ``name`` or unequal lengths."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.size == 0:  # atleast_2d turns an empty list into shape (1, 0)
        raise ValueError(f"{name} is empty")
    if len(Z) != len(X):
        raise ValueError(f"{name} mismatch: {len(X)} inputs vs {len(Z)} targets")
    return X, Z


@dataclass
class TrainConfig:
    """How to train. ``seed`` seeds nothing: a model is seeded where it is built
    (``init_hybrid_model(seed)``, ``baseline_net(seed)``), and this seed is only
    recorded, in ``hqloc train``'s manifest.
    """

    optimizer: str = "adam"
    eta: float = 0.001
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not 0 <= self.eta < math.inf:  # also refuses NaN
            raise ValueError(f"learning rate must be finite and >= 0, got {self.eta}")
        check_integer("epochs", self.epochs)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        check_seed(self.seed)


@dataclass
class TrainReport:
    loss_per_epoch: np.ndarray  # pre-update MSE, one entry per epoch
    final_train_mse: float
    wall_time_s: float


def _stack(models):
    """One model whose ``params`` row s is a copy of ``models[s].params``.

    A stack of one is the model itself, with no seed axis, so it trains in
    place at the cost of a solo run.
    """
    kinds = {type(model) for model in models}
    if len(kinds) != 1:
        raise TypeError("a training stack holds models of one kind")
    (kind,) = kinds
    if kind not in (HybridModel, classical.DenseNet):
        raise TypeError(f"cannot train model of type {kind.__name__}")
    if len(models) == 1:
        return models[0]
    if kind is HybridModel:
        # The angles are written in after the layer is built: QuantumLayer
        # refuses a non-finite phi, but a model whose angles diverged must
        # stack as it stands and fail at the loss check, as it does alone.
        heads = classical.stack([model.head for model in models])
        stack = HybridModel(QuantumLayer(np.zeros((len(models), N_ANSATZ_PARAMS))), heads)
        stack.qlayer.phi[:] = [model.qlayer.phi for model in models]
        return stack
    return classical.stack(models)


def _model_ops(model, X, Z):
    """(train_mse, loss_and_grad) for training the stack ``model`` on (``X``, ``Z``).

    ``loss_and_grad(model)`` gives one epoch's pre-update MSE and gradient per
    model, ``train_mse(model)`` the MSE alone, from one forward of
    :func:`classical.loss` into the run's workspace. What every epoch reads or
    overwrites is built here, once per training run: the
    :class:`classical.Workspace` of the dense network, or of a hybrid model's
    head, and for a hybrid model its training rows' Pauli features and the
    joint gradient, whose head part is the workspace's gradient.
    """
    if isinstance(model, HybridModel):
        features = pauli_features(encode_batch(check_features(X, N_FEATURES)))
        grad = np.empty(model.params.shape)
        work = classical.workspace(model.head, len(X), grad[..., N_ANSATZ_PARAMS:])

        def train_mse(stack):
            return classical.loss(stack.head, q_forward_batch(stack.qlayer, features), Z, work)

        def loss_and_grad(stack):
            # The head's gradient goes into ``work``'s gradient, the head's
            # part of ``grad``; phi's part chains the head's input gradients
            # through the shift-rule Jacobian. The loss keeps its own exact
            # forward, so an epoch makes two forwards and one Jacobian, which
            # the benchmark's tracer counts as 14 ansatz sweeps (13 if the
            # loss were read off the gradient's forward;
            # perfbench/test_perfbench.py pins 14). All three read the run's
            # features and share one compile of phi through qlayer's cache.
            # The gradient pass reduces no MSE; the loss forward overwrites
            # the head's layer outputs, which the gradient pass has used by
            # then, and not its gradients.
            U = q_forward_batch(stack.qlayer, features)
            _, input_grads = classical.mse_grad(stack.head, U, Z, work)
            # A plain einsum (optimize=False) sums row s of a stack as model s alone.
            np.einsum("...nj,...njk->...k", input_grads,
                      q_gradient_batch(stack.qlayer, features), out=grad[..., :N_ANSATZ_PARAMS])
            return train_mse(stack), grad

        return train_mse, loss_and_grad

    work = classical.workspace(model, len(X))

    def train_mse(stack):
        return classical.loss(stack, X, Z, work)

    def loss_and_grad(stack):
        return classical.loss_and_grad(stack, X, Z, work)[:2]

    return train_mse, loss_and_grad


def train_stack(models, X, Z, config: TrainConfig) -> list[TrainReport | Exception]:
    """Full-batch training of models of one kind as one stack; one result per model.

    Every model trains under the one ``config``. Each epoch runs one
    loss-and-gradient pass and one optimizer step over the stack's (S, P)
    parameters, and the steps are written back into each ``model.params`` in
    place. Model s trains bit for bit as it would alone, whichever models share
    its stack. Its result is its :class:`TrainReport` (with the stack's wall
    time), or the exception its solo run raises: a RuntimeError naming the
    epoch of a non-finite loss, checked before that epoch's step (epoch
    ``epochs`` is the loss after the last step), or ``adam_step``'s ValueError
    on a non-finite gradient. A stack of one trains the model itself and stops
    at its failure, with its parameters as they stood. A larger stack that
    meets a failure is dropped, and each model trains alone under ``config``,
    so every result is still what its solo run gives; a survivor's report then
    carries its own solo wall time.
    """
    X, Z = _batch(X, Z, "training set")
    if not models:
        raise ValueError("a training stack needs at least one model")
    start = time.perf_counter()
    stack = _stack(models)  # copies the models' params unless it is a stack of one
    train_mse, loss_and_grad = _model_ops(stack, X, Z)
    # Looked up in ``optim`` when the run starts, so a step patched there is the one taken.
    if config.optimizer == "adam":
        step = partial(optim.adam_step, optim.init_adam(stack.params.shape, eta=config.eta))
    else:
        step = partial(optim.sgd_step, eta=config.eta)
    trace = np.empty((config.epochs, len(models)))  # one column per model

    def loss_failure(losses, epoch: int) -> RuntimeError | None:
        """The error of a non-finite loss at ``epoch``, or None if every loss is finite."""
        # A stack of one has a float loss, which math checks far faster than numpy.
        if math.isfinite(losses) if isinstance(losses, float) else np.isfinite(losses).all():
            return None
        message = f"non-finite training loss at epoch {epoch}; lower the learning rate"
        return RuntimeError(f"{message} (eta={config.eta})")

    # A diverging run overflows on its way to a non-finite loss; numpy stays
    # quiet, and the loss check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            losses, grads = loss_and_grad(stack)
            trace[epoch] = losses
            if failure := loss_failure(losses, epoch):
                break
            try:
                step(stack.params, grads)
            except ValueError as exc:
                if np.isfinite(grads).all():  # not a gradient adam_step refuses
                    raise
                failure = exc
                break
        else:
            final = train_mse(stack)
            failure = loss_failure(final, config.epochs)
    if failure is not None:
        if len(models) == 1:
            return [failure]
        return [train_stack([m], X, Z, config)[0] for m in models]
    wall_time_s = time.perf_counter() - start
    for model, row in zip(models, stack.params.reshape(len(models), -1)):
        model.params[:] = row
    final = np.reshape(final, -1)
    return [TrainReport(trace[:, s].copy(), float(final[s]), wall_time_s)
            for s in range(len(models))]


def train(model, X, Z, config: TrainConfig) -> TrainReport:
    """Full-batch training of one model: the stack of one of :func:`train_stack`.

    Deterministic given the (already seeded) model; ``config.seed`` is not
    read. Records the pre-update MSE each epoch, so entry 0 reflects the
    quality of the initialization and the trace length equals the epoch count.
    Each step is written into ``model.params`` in place. Raises what
    :func:`train_stack` records for a failed model, such as the RuntimeError
    naming the epoch of a non-finite loss. Evaluating the trained model on a
    test set is the caller's step (:func:`evaluate_rmse`).
    """
    (result,) = train_stack([model], X, Z, config)
    if isinstance(result, Exception):
        raise result
    return result


def evaluate_rmse(predict_batch, X, Z) -> float:
    """Root mean squared Euclidean position error (m) on a test set.

    ``predict_batch`` maps the whole (n, n_features) matrix ``X`` to an
    (n, 2) matrix of predicted coordinates in one call.
    """
    X, Z = _batch(X, Z, "test set")
    return math.sqrt(classical.mse_loss(predict_batch(X), Z))


@dataclass(frozen=True)
class CompareConfig:
    seeds: tuple[int, ...] = (1, 2, 3)
    epochs: int = 300
    eta: float = 0.001
    optimizer: str = "adam"
    shots: int = 4096
    knn_ks: tuple[int, ...] = (1, 3, 5)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        for k in self.knn_ks:
            check_integer("each k in knn_ks", k)
        if not self.knn_ks or min(self.knn_ks) < 1:
            raise ValueError(f"knn_ks must be one or more k >= 1, got {list(self.knn_ks)}")
        check_shots(self.shots)
        _train_config(self)  # the checks every training run applies
        for seed in self.seeds:
            check_seed(seed)


def config_digest(meta: data.ScenarioMeta, config: CompareConfig) -> str:
    payload = json.dumps({"meta": asdict(meta), "config": asdict(config)},
                         sort_keys=True, default=int)  # a numpy integer setting as its int
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _train_config(config: CompareConfig) -> TrainConfig:
    return TrainConfig(optimizer=config.optimizer, eta=config.eta, epochs=config.epochs)


def compare_all(
    meta: data.ScenarioMeta,
    train_samples,
    test_samples,
    config: CompareConfig = CompareConfig(),
) -> list[dict]:
    """Test RMSE of every method on one scenario cell.

    Methods: the classical baseline network, KNN (best k over the configured
    sweep), quantum-fingerprint matching, the hybrid model with exact
    expectations, and the same trained hybrid model evaluated with sampled
    expectations. Seeded methods get one record per seed plus a mean record
    when several seeds are given. A method that raises is recorded with a
    null RMSE and the run continues. Each split is an (n, 5) table or a list
    of samples, its rows.
    """
    scaler = data.fit_scaler(train_samples)
    X_train, Z_train = data.transform_samples(scaler, train_samples)
    X_test, Z_test = data.transform_samples(scaler, test_samples)
    digest = config_digest(meta, config)
    records: list[dict] = []

    def record(method, seed, rmse, note=""):
        records.append(
            {
                "scenario": meta.name,
                "technology": meta.technology,
                "method": method,
                "seed": seed,
                "rmse_m": rmse,
                "note": note,
                "config_digest": digest,
            }
        )

    train_config = _train_config(config)

    def train_seeds(init):
        """Each seed's model, trained in one stack, or the exception its training raised."""
        models = [init(seed) for seed in config.seeds]
        try:
            results = train_stack(models, X_train, Z_train, train_config)
        except Exception as exc:  # record the failure, keep comparing
            results = [exc] * len(models)
        return [r if isinstance(r, Exception) else m for m, r in zip(models, results)]

    def per_seed(method, trained, predictor, note=""):
        values = []
        for seed, model in zip(config.seeds, trained):
            try:
                if isinstance(model, Exception):
                    raise model
                rmse = evaluate_rmse(predictor(model, seed), X_test, Z_test)
            except Exception as exc:  # record the failure, keep comparing
                record(method, seed, None, note=f"failed: {exc}")
                continue
            values.append(rmse)
            record(method, seed, rmse, note=note)
        if len(config.seeds) > 1 and values:
            record(method, "mean", float(np.mean(values)), note=note)

    per_seed("classical_nn", train_seeds(classical.baseline_net),
             lambda net, seed: lambda X: classical.forward_batch(net, X))

    try:
        n_train = len(X_train)
        best_k, best_rmse = None, None
        for k in config.knn_ks:
            if k > n_train:
                continue
            knn = baselines.fit_knn(X_train, Z_train, k=k)
            rmse = evaluate_rmse(partial(baselines.knn_predict, knn), X_test, Z_test)
            if best_rmse is None or rmse < best_rmse:
                best_k, best_rmse = k, rmse
        if best_k is None:
            raise ValueError(f"every k in {list(config.knn_ks)} exceeds the "
                             f"{n_train} training rows")
        note = f"k={best_k}"
        skipped = [k for k in config.knn_ks if k > n_train]
        if skipped:
            verb = "exceeds" if len(skipped) == 1 else "exceed"
            note += (f"; skipped {', '.join(f'k={k}' for k in skipped)} "
                     f"({verb} the {n_train} training rows)")
        record("knn", None, best_rmse, note=note)
    except Exception as exc:
        record("knn", None, None, note=f"failed: {exc}")

    try:
        db = baselines.build_fingerprint_db(X_train, Z_train)
        rmse = evaluate_rmse(partial(baselines.fingerprint_predict, db), X_test, Z_test)
        record("quantum_fingerprint", None, rmse)
    except Exception as exc:
        record("quantum_fingerprint", None, None, note=f"failed: {exc}")

    # Each seed's hybrid model trains once; its exact and sampled rows share
    # the model, or the exception its training raised.
    hybrids = train_seeds(init_hybrid_model)
    per_seed("hqnn_exact", hybrids,
             lambda model, seed: lambda X: hqnn_forward_batch(model, X, None, seed))
    per_seed("hqnn_shots", hybrids,
             lambda model, seed: lambda X: hqnn_forward_batch(model, X, config.shots, seed),
             note=f"shots={config.shots}")
    return records


_COLUMNS = ("scenario", "technology", "method", "seed", "rmse_m", "note")


def _cells(record, rmse_text) -> list[str]:
    """``record``'s :data:`_COLUMNS` as text, its RMSE through ``rmse_text``; a null is ""."""
    seed, rmse = record["seed"], record["rmse_m"]
    return [str(record["scenario"]), str(record["technology"]), str(record["method"]),
            "" if seed is None else str(seed), "" if rmse is None else rmse_text(rmse),
            str(record["note"])]


def format_comparison(records) -> str:
    """Human-readable table of comparison records."""
    rows = [_cells(r, "{:.3f}".format) for r in records]
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(_COLUMNS)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(_COLUMNS, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def records_to_csv_rows(records) -> list[list[str]]:
    """Machine-readable rows (full float precision) for the comparison CSV."""
    return [[*_COLUMNS, "config_digest"],
            *([*_cells(r, lambda v: repr(float(v))), str(r["config_digest"])] for r in records)]
