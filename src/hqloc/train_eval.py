"""Hybrid model assembly, the training loop, evaluation, and method comparison.

The hybrid model is the quantum layer (6 trainable angles) followed by the
classical regression head (3 -> 32 -> 2), for 200 trainable parameters total.
Training is full batch: each epoch records the pre-update MSE, computes the
joint gradient (reverse mode through the head, shift rule through the quantum
layer), and applies one optimizer step to the concatenated parameter vector.

Evaluation is batched: :func:`evaluate_rmse` calls its predictor once on the
whole test matrix, and :func:`hqnn_forward_batch` runs every row through one
quantum kernel pass and one head pass, exact or, for a layer with shots set,
shot-sampled.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import baselines, classical, data, optim
from .circuits import N_ANSATZ_PARAMS
from .qlayer import (
    QuantumLayer,
    encode_batch,
    q_forward,
    q_forward_batch,
    q_gradient_batch,
)

OPTIMIZERS = ("adam", "sgd")


@dataclass
class HybridModel:
    qlayer: QuantumLayer
    head: classical.DenseNet

    @property
    def n_params(self) -> int:
        return self.qlayer.phi.size + classical.net_num_params(self.head)


def init_hybrid_model(seed: int = 0) -> HybridModel:
    """Seeded fresh model: ansatz angles uniform in [-pi, pi], Glorot head."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-np.pi, np.pi, size=N_ANSATZ_PARAMS)
    return HybridModel(qlayer=QuantumLayer(phi=phi), head=classical.hqnn_head(rng))


def hqnn_forward(model: HybridModel, x) -> np.ndarray:
    """Predicted (x, y) coordinates in meters for one scaled feature vector."""
    return classical.forward(model.head, q_forward(model.qlayer, x))


def hqnn_forward_batch(model: HybridModel, X) -> np.ndarray:
    """Predicted (x, y) coordinates for every row of a scaled feature matrix."""
    U = q_forward_batch(model.qlayer, encode_batch(X))
    return classical.forward_batch(model.head, U)


def model_param_vector(model: HybridModel) -> np.ndarray:
    """Quantum angles first, then the flattened head parameters."""
    return np.concatenate([model.qlayer.phi, classical.net_param_vector(model.head)])


def set_model_params(model: HybridModel, vec: np.ndarray) -> None:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (model.n_params,):
        raise ValueError(f"expected {model.n_params} parameters, got shape {vec.shape}")
    n_q = model.qlayer.phi.size
    model.qlayer.phi = vec[:n_q].copy()
    classical.set_net_params(model.head, vec[n_q:])


def hqnn_grad(model: HybridModel, X, Z, encoded=None) -> np.ndarray:
    """Gradient of the batch MSE with respect to all trainable parameters.

    Head gradients come from reverse mode; quantum gradients chain the head's
    input gradients through the per-sample shift-rule matrices. ``encoded``
    optionally supplies the rows of :func:`encode_batch` for ``X``, so a
    training loop encodes its data once.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = len(X)
    if n == 0:
        raise ValueError("gradient needs a nonempty batch")
    if len(Z) != n:
        raise ValueError(f"batch mismatch: {n} inputs vs {len(Z)} targets")
    rows = encode_batch(X) if encoded is None else encoded
    U = q_forward_batch(model.qlayer, rows)
    preds = classical.forward_batch(model.head, U)
    upstream = 2.0 * (preds - Z) / n
    layer_grads, input_grads = classical.backward_batch(model.head, U, upstream)
    head_grad = classical.grads_to_vector(layer_grads)
    shift_matrices = q_gradient_batch(model.qlayer, rows)
    phi_grad = np.einsum("nj,njk->k", input_grads, shift_matrices)
    return np.concatenate([phi_grad, head_grad])


def dense_grad(net: classical.DenseNet, X, Z) -> np.ndarray:
    """Batch MSE gradient for a plain dense network (classical baseline)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = len(X)
    if n == 0:
        raise ValueError("gradient needs a nonempty batch")
    if len(Z) != n:
        raise ValueError(f"batch mismatch: {n} inputs vs {len(Z)} targets")
    preds = classical.forward_batch(net, X)
    upstream = 2.0 * (preds - Z) / n
    layer_grads, _ = classical.backward_batch(net, X, upstream)
    return classical.grads_to_vector(layer_grads)


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    eta: float = 0.001
    epochs: int = 300
    seed: int = 0
    shots_eval: int | None = None
    early_stop_patience: int | None = None
    early_stop_min_delta: float = 1e-7

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.eta < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.eta}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class TrainReport:
    loss_per_epoch: np.ndarray  # pre-update MSE, one entry per epoch run
    final_train_mse: float
    final_test_rmse: float | None
    config: TrainConfig
    wall_time_s: float
    epochs_run: int


def _model_ops(model, X):
    """Uniform (predict_batch, train_preds, train_grad, get, set) for training on ``X``.

    A hybrid model's training rows are encoded here, once per training run.
    """
    if isinstance(model, HybridModel):
        rows = encode_batch(X)

        def predict(X_eval):
            return hqnn_forward_batch(model, X_eval)

        def train_preds():
            U = q_forward_batch(model.qlayer, rows)
            return classical.forward_batch(model.head, U)

        def train_grad(Z):
            return hqnn_grad(model, X, Z, encoded=rows)

        return predict, train_preds, train_grad, \
            lambda: model_param_vector(model), lambda v: set_model_params(model, v)
    if isinstance(model, classical.DenseNet):
        def predict(X_eval):
            return classical.forward_batch(model, X_eval)

        return predict, lambda: classical.forward_batch(model, X), \
            lambda Z: dense_grad(model, X, Z), \
            lambda: classical.net_param_vector(model), \
            lambda v: classical.set_net_params(model, v)
    raise TypeError(f"cannot train model of type {type(model).__name__}")


def train(model, X, Z, config: TrainConfig, test=None) -> TrainReport:
    """Full-batch training; deterministic given the (already seeded) model.

    Records the pre-update MSE each epoch, so entry 0 reflects the quality of
    the initialization and the trace length equals the epoch count. Setting
    ``early_stop_patience`` trades that guarantee for stopping once the best
    loss has stalled for that many epochs. Aborts on non-finite loss.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if len(X) == 0:
        raise ValueError("training set is empty")
    start = time.perf_counter()
    predict, train_preds, train_grad, get_params, set_params = _model_ops(model, X)
    params = get_params()
    adam_state = optim.init_adam(params.size, eta=config.eta)
    trace = []
    best = math.inf
    since_improve = 0
    for epoch in range(config.epochs):
        loss = classical.mse_loss(train_preds(), Z)
        if not math.isfinite(loss):
            raise RuntimeError(
                f"non-finite training loss at epoch {epoch}; "
                f"lower the learning rate (eta={config.eta})"
            )
        trace.append(loss)
        if loss < best - config.early_stop_min_delta:
            best = loss
            since_improve = 0
        else:
            since_improve += 1
        if (
            config.early_stop_patience is not None
            and since_improve >= config.early_stop_patience
        ):
            break
        grads = train_grad(Z)
        if config.optimizer == "adam":
            adam_state, params = optim.adam_step(adam_state, params, grads)
        else:
            params = optim.sgd_step(params, grads, config.eta)
        set_params(params)
    final_train_mse = classical.mse_loss(train_preds(), Z)
    wall = time.perf_counter() - start
    final_test_rmse = None
    if test is not None:
        X_test, Z_test = test
        if config.shots_eval is not None and isinstance(model, HybridModel):
            final_test_rmse = evaluate_rmse(
                _sampled_predictor(model, config.shots_eval, config.seed), X_test, Z_test
            )
        else:
            final_test_rmse = evaluate_rmse(predict, X_test, Z_test)
    return TrainReport(
        loss_per_epoch=np.asarray(trace),
        final_train_mse=final_train_mse,
        final_test_rmse=final_test_rmse,
        config=config,
        wall_time_s=wall,
        epochs_run=len(trace),
    )


def _sampled_predictor(model: HybridModel, shots: int, seed: int):
    """Batch predictor of ``model`` with expectations sampled from ``shots`` shots."""
    layer = QuantumLayer(
        phi=model.qlayer.phi.copy(),
        observables=model.qlayer.observables,
        shots=shots,
        seed=seed,
    )
    sampled = HybridModel(qlayer=layer, head=model.head)
    return lambda X: hqnn_forward_batch(sampled, X)


def evaluate_rmse(predict_batch, X, Z) -> float:
    """Root mean squared Euclidean position error (m) on a test set.

    ``predict_batch`` maps the whole (n, n_features) matrix ``X`` to an
    (n, 2) matrix of predicted coordinates in one call.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if len(X) == 0:
        raise ValueError("test set is empty")
    if len(Z) != len(X):
        raise ValueError(f"test mismatch: {len(X)} inputs vs {len(Z)} targets")
    return math.sqrt(classical.mse_loss(predict_batch(X), Z))


@dataclass(frozen=True)
class CompareConfig:
    seeds: tuple[int, ...] = (1, 2, 3)
    epochs: int = 300
    eta: float = 0.001
    optimizer: str = "adam"
    shots: int = 4096
    knn_ks: tuple[int, ...] = (1, 3, 5)
    early_stop_patience: int | None = None
    early_stop_min_delta: float = 1e-7


def config_digest(meta: data.ScenarioMeta, config: CompareConfig) -> str:
    payload = json.dumps({"meta": asdict(meta), "config": asdict(config)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _train_config(config: CompareConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        optimizer=config.optimizer,
        eta=config.eta,
        epochs=config.epochs,
        seed=seed,
        early_stop_patience=config.early_stop_patience,
        early_stop_min_delta=config.early_stop_min_delta,
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

    trained: dict[int, HybridModel] = {}

    def run_hqnn_exact(seed):
        model = init_hybrid_model(seed)
        train(model, X_train, Z_train, _train_config(config, seed))
        trained[seed] = model
        return evaluate_rmse(lambda X: hqnn_forward_batch(model, X), X_test, Z_test)

    per_seed("hqnn_exact", run_hqnn_exact)

    def run_hqnn_shots(seed):
        model = trained.get(seed)
        if model is None:
            model = init_hybrid_model(seed)
            train(model, X_train, Z_train, _train_config(config, seed))
        predict = _sampled_predictor(model, config.shots, seed)
        return evaluate_rmse(predict, X_test, Z_test)

    per_seed("hqnn_shots", run_hqnn_shots, note=f"shots={config.shots}")
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
