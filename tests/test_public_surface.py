"""Tooling check: every public name of the runtime is something the runtime or the benchmark uses.

This walks the syntax tree of every module under ``src/hqloc`` but
``reference`` and lists its public top-level functions, classes and
constants. Each must be referenced from one of two places:

- runtime code other than its own definition: a name read in its module, a
  ``from .module import name``, or ``module.name`` on an imported module;
- ``perfbench/workloads.py``, as ``module.name`` on a module it imports from
  hqloc.

A name that only tests, demos or the reference simulator use belongs with
them. The tracer's table, ``TRACED`` in ``perfbench/tracing.py``, does not
count: it names functions to time where they exist, and skips the ones that
do not, so a name listed there alone has no caller.
"""

import ast
from pathlib import Path

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


def unreferenced(sources: dict[str, str], workloads: str) -> list[str]:
    """``module.name`` of each public runtime name that nothing in the two places references."""
    tree = ast.parse(workloads)
    used = runtime_uses(sources) | _attribute_uses(tree, _module_aliases(tree, "hqloc", sources))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in definitions(ast.parse(source))
        if (module, name) not in used
    )


def test_every_public_runtime_name_is_used():
    sources = {name: path.read_text(encoding="utf-8") for name, path in RUNTIME.items()}
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    assert unreferenced(sources, workloads) == []


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
        "def traced_only(): pass",  # a name the tracer's table lists is still unused
    ])
    sources = {
        "circuits": circuits,
        "qlayer": "from .circuits import ry\nfrom . import data as d\nd.load()\n",
        "data": "def load(): pass\ndef fit(): pass\ndef unused(): pass\n",
        "cli": "def main(): pass\n",
    }
    workloads = "from hqloc import cli, data\ndata.fit()\ncli.main()\nother.unused()\n"
    assert unreferenced(sources, workloads) == [
        "circuits.GATE_KINDS", "circuits.rz", "circuits.traced_only", "circuits.zz_feature_map",
        "data.unused",
    ]
