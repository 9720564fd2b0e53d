"""Tooling check: every public name of the runtime is something the runtime or the benchmark uses.

This walks the syntax tree of every module under ``src/hqloc`` but
``reference`` and lists its public top-level functions, classes and
constants. Each must be referenced from one of three places:

- runtime code other than its own definition: a name read in its module, a
  ``from .module import name``, or ``module.name`` on an imported module;
- ``perfbench/workloads.py``, as ``module.name`` on a module it imports from
  hqloc;
- the tracer's table, ``TRACED`` in ``perfbench/tracing.py``, read without
  installing the tracer.

A name that only tests, demos or the reference simulator use belongs with
them. The names that pass through ``TRACED`` alone are the ones the benchmark
upkeep may retire with the table.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hqloc"
RUNTIME = {path.stem: path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "reference"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Public top-level functions, classes and assigned names, each with its defining node."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node) for name in names if _public(name))
    return found


def _module_aliases(tree: ast.Module, package: str, modules) -> dict[str, str]:
    """Local name -> package module, for each ``from . import m`` or ``from package import m``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module is None)
            or (node.level == 0 and node.module == package)
        ):
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
    return aliases


def _attribute_uses(tree: ast.AST, aliases: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each ``alias.name`` in ``tree``."""
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def runtime_uses(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of every reference runtime code makes, none inside the name's own definition."""
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        used |= _attribute_uses(tree, _module_aliases(tree, "hqloc", sources))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in sources:
                used |= {(node.module, alias.name) for alias in node.names}
        own = definitions(tree)
        for name, definition in own.items():
            # The definition's own node covers its body, decorators and default values.
            inside = {id(node) for node in ast.walk(definition)}
            if any(isinstance(node, ast.Name) and node.id == name and id(node) not in inside
                   for node in ast.walk(tree)):
                used.add((module, name))
    return used


def unreferenced(sources: dict[str, str], workloads: str, traced: dict) -> list[str]:
    """``module.name`` of each public runtime name that nothing in the three places references."""
    tree = ast.parse(workloads)
    used = runtime_uses(sources) | _attribute_uses(tree, _module_aliases(tree, "hqloc", sources))
    used |= {(module, name) for module, names in traced.items() for name in names}
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in definitions(ast.parse(source))
        if (module, name) not in used
    )


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_public_runtime_name_is_used(traced):
    sources = {name: path.read_text(encoding="utf-8") for name, path in RUNTIME.items()}
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    assert unreferenced(sources, workloads, traced) == []


def test_checker_catches_each_form():
    circuits = "\n".join([
        "GATE_KINDS = ('H', 'P')",
        "WIDTH: int = 3",
        "_PRIVATE = 1",
        "class Gate: pass",
        "def h(q): return Gate()",
        "def p(q): return Gate()",
        "def rz(q): return rz(q)",  # only its own body calls it
        "def zz_feature_map(x): return [h(0), p(0)]",
        "def ry(q, width=WIDTH): return Gate()",
        "def traced_only(): pass",
    ])
    sources = {
        "circuits": circuits,
        "qlayer": "from .circuits import ry\nfrom . import data as d\nd.load()\n",
        "data": "def load(): pass\ndef fit(): pass\ndef unused(): pass\n",
        "cli": "def main(): pass\n",
    }
    workloads = "from hqloc import cli, data\ndata.fit()\ncli.main()\nother.unused()\n"
    traced = {"circuits": {"traced_only": None}}
    assert unreferenced(sources, workloads, traced) == [
        "circuits.GATE_KINDS", "circuits.rz", "circuits.zz_feature_map", "data.unused",
    ]
