"""Tooling check: every function the benchmark's pins count is still traced and still exists.

``perfbench/test_perfbench.py`` pins counts that ``perfbench/tracing.py``
takes from spans around named ``hqloc`` functions. The tracer skips a name it
cannot find, so a renamed function would only show as a wrong count in the
slow benchmark suite. This reads the tracer's table without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

# module.function -> the pin that counts it
PINNED = {
    "circuits.feature_state": "feature_state.calls_per_fix on locate",
    "statevector.sample_expect_z": "sample_expect_z calls and shots per fix on eval_shots",
    "qlayer.q_forward_batch": "sweeps_per_epoch on train",
    "qlayer.q_gradient_batch": "sweeps_per_epoch on train",
    "train_eval.train": "the training span sweeps_per_epoch divides by",
    "optim.adam_step": "workload.epochs on train, the steps sweeps_per_epoch divides by",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", PINNED)
def test_a_pinned_function_is_traced_and_defined(tracing, name):
    module, function = name.split(".")
    assert function in tracing.TRACED.get(module, {}), f"{name} ({PINNED[name]}) is not traced"
    defined = getattr(importlib.import_module(f"hqloc.{module}"), function, None)
    assert callable(defined), f"hqloc.{name} ({PINNED[name]}) is gone"


def test_the_shot_counter_reads_the_keyword_call_the_layer_makes(tracing, monkeypatch):
    # The counter reads the calls an evaluation really makes, so a change to
    # how statevector.sample_batch calls sample_expect_z fails here too.
    from hqloc import statevector, train_eval

    calls = []
    real = statevector.sample_expect_z

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(statevector, "sample_expect_z", recording)
    model = train_eval.init_hybrid_model(1)
    train_eval.hqnn_forward_batch(model, np.full((2, 3), 0.5), shots=4096, seed=7)
    assert len(calls) == 2 * 3
    count = tracing.TRACED["statevector"]["sample_expect_z"]
    assert [count(args, kwargs) for args, kwargs in calls] == [(4096, 0)] * len(calls)


@pytest.mark.parametrize("n_rows", [1, 7])
def test_the_sweep_counters_read_the_features_the_runtime_passes(tracing, n_rows):
    # A training run passes the layer and its rows' (n, 20) Pauli features:
    # one sweep per row for a forward and 2 * 6 for a Jacobian, so 14 an epoch.
    from hqloc import qlayer

    layer = qlayer.QuantumLayer(phi=np.linspace(-1.0, 1.0, 6))
    features = qlayer.pauli_features(qlayer.encode_batch(np.full((n_rows, 3), 0.5)))
    assert features.shape == (n_rows, 20)
    counters = tracing.TRACED["qlayer"]
    for name, sweeps in (("q_forward_batch", 1), ("q_gradient_batch", 12)):
        assert counters[name]((layer, features), {}) == (n_rows, sweeps)
        getattr(qlayer, name)(layer, features)  # and the kernel takes these arguments


def test_the_encode_counter_reads_the_circuits_encoder():
    # The tracer's qlayer.encode_batch metric patches the name qlayer holds.
    import hqloc.circuits
    import hqloc.qlayer

    assert hqloc.qlayer.encode_batch is hqloc.circuits.encode_batch


def test_a_traced_hybrid_training_counts_14_sweeps_and_one_adam_step_an_epoch(tracing):
    # The train workload's sweeps_per_epoch and workload.epochs, read off a
    # 5-epoch run: the tracer must see every sweep and every step, so a training
    # loop holding an adam_step it took before the tracer was installed fails here.
    from hqloc import data, train_eval

    _, samples, _ = data.gen_scenario_standin("Sc-1", "WiFi", seed=1)
    X, Z = data.transform_samples(data.fit_scaler(samples), samples)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        train_eval.train(train_eval.init_hybrid_model(1), X, Z, train_eval.TrainConfig(epochs=5))
    finally:
        tracer.uninstall()
    assert tracer.epoch_sweeps() == (70, 5)
    assert tracer.summary()["optim.adam_step"]["calls"] == 5
