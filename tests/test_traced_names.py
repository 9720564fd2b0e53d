"""Tooling check: every function the benchmark's pins count is still traced and still exists.

``perfbench/test_perfbench.py`` pins counts that ``perfbench/tracing.py``
takes from spans around named ``hqloc`` functions. The tracer skips a name it
cannot find, so a renamed function would only show as a wrong count in the
slow benchmark suite. This reads the tracer's table without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# module.function -> the pin that counts it
PINNED = {
    "circuits.feature_state": "feature_state.calls_per_fix on locate",
    "statevector.sample_expect_z": "sample_expect_z calls and shots per fix on eval_shots",
    "qlayer.q_forward_batch": "sweeps_per_epoch on train",
    "qlayer.q_gradient_batch": "sweeps_per_epoch on train",
    "train_eval.train": "the training span sweeps_per_epoch divides by",
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


def test_the_shot_counter_reads_the_keyword_call_the_layer_makes(tracing):
    # The layer passes the expectation alone by position, and the budget by keyword.
    count = tracing.TRACED["statevector"]["sample_expect_z"]
    assert count((0.25,), {"shots": 4096, "rng_seed": 7}) == (4096, 0)
