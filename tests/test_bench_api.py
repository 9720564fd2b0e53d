"""Tooling check: the hqloc API the benchmark's workloads call still exists.

``perfbench/workloads.py`` drives the package through ``cli``, ``data``,
``model_io`` and ``train_eval``. A renamed function, a dropped keyword or a
dropped ``TrainReport`` field would only show when the slow benchmark suite
runs. This walks the workloads' syntax tree instead, so it imports nothing
from perfbench.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from hqloc.train_eval import TrainReport

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("cli", "data", "model_io", "train_eval")


def _member(node) -> tuple[str, str] | None:
    """(module, name) if ``node`` is ``module.name`` for a checked hqloc module."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        return node.value.id, node.attr
    return None


def api_faults(source: str) -> list[str]:
    """Each use in ``source`` of a checked module's name that the package no longer serves.

    A ``module.name`` must exist; a call of it must bind to its signature; an
    attribute read off a ``train_eval.train(...)`` result must be a
    :class:`TrainReport` field.
    """
    faults = []
    report_fields = {field.name for field in dataclasses.fields(TrainReport)}
    for node in ast.walk(ast.parse(source)):
        if member := _member(node):
            module, name = member
            if not hasattr(importlib.import_module(f"hqloc.{module}"), name):
                faults.append((node.lineno, f"hqloc.{module}.{name} is gone"))
        elif isinstance(node, ast.Call) and (member := _member(node.func)):
            target = getattr(importlib.import_module(f"hqloc.{member[0]}"), member[1], None)
            if not callable(target):
                continue  # reported as gone above
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            starred = any(isinstance(a, ast.Starred) for a in node.args) or None in (
                k.arg for k in node.keywords)
            try:
                if starred:  # the positional count is not known statically
                    inspect.signature(target).bind_partial(**keywords)
                else:
                    inspect.signature(target).bind(*[None] * len(node.args), **keywords)
            except TypeError as exc:
                faults.append((node.lineno, f"{'.'.join(member)}(...): {exc}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
              and _member(node.value.func) == ("train_eval", "train")
              and node.attr not in report_fields):
            faults.append((node.lineno, f"TrainReport has no field {node.attr!r}"))
    return [f"line {line}: {fault}" for line, fault in sorted(faults)]


def test_the_workloads_bind_each_checked_name_to_its_hqloc_module():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "hqloc"
                for alias in node.names}
    assert imported >= set(MODULES)
    assigned = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not assigned & set(MODULES), "a workload rebinds a module name"


def test_the_workloads_use_only_what_the_package_serves():
    source = WORKLOADS.read_text(encoding="utf-8")
    assert api_faults(source) == []
    # The two uses that a change to the training API would break first.
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert any(_member(c.func) == ("train_eval", "TrainConfig") and c.keywords for c in calls)
    reads = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Call)
             and _member(node.value.func) == ("train_eval", "train")]
    assert reads == ["final_train_mse"]


def test_checker_catches_each_form():
    source = "\n".join([
        "from hqloc import cli, data, model_io, train_eval",
        "train_eval.gone_function(1)",
        "train_eval.TrainConfig(epochs=1, seeds=2)",
        "train_eval.TrainConfig(epochs=1, eta=0.1, seed=3)",
        "train_eval.train(m, X, Z, c).config",
        "train_eval.train(m, X, Z, c).final_train_mse",
        "data.load_table(path, *extra, header=True)",
        "cli.main(argv, 1)",
        "oracle.anything(1, 2, 3)",
    ])
    faults = api_faults(source)
    assert [fault.split(":")[0] for fault in faults] == [
        "line 2", "line 3", "line 5", "line 7", "line 8",
    ]
    assert "gone_function is gone" in faults[0]
    assert "'seeds'" in faults[1]
    assert "no field 'config'" in faults[2]

