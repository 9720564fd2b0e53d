"""Tooling check: the runtime depends on numpy only, and never on the reference simulator.

This walks the syntax tree of every module under ``src/hqloc`` and reports
each import of anything other than the standard library, numpy or hqloc
itself. Tests, demos and the benchmark may use more (pytest, Hypothesis).
It also reports each import of ``hqloc.reference`` from any module but
``reference`` itself: the gate-level simulator checks the runtime and is
never part of it.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hqloc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hqloc"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import outside ``ALLOWED``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside hqloc
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return sorted(found)


def reference_imports(source: str) -> list[int]:
    """Lines of a package module's source that import ``hqloc.reference``, relatively or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                continue  # no module under src/hqloc sits deeper than the package
            package = "hqloc" if node.level else ""
            module = ".".join(part for part in (package, node.module) if part)
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "hqloc.reference" or name.startswith("hqloc.reference.") for name in names):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_numpy_and_stdlib_only(path):
    found = foreign_imports(path.read_text(encoding="utf-8"))
    assert not found, [f"{path.name}:{line}: {name}" for line, name in found]


def test_checker_catches_each_form():
    source = "\n".join([
        "import json, scipy.linalg",
        "from numpy.linalg import norm",
        "from hqloc.data import load_table",
        "from . import circuits",
        "from .statevector import Gate",
        "import pandas as pd",
        "from hypothesis import given",
        "from __future__ import annotations",
        "def f():",
        "    import torch",
    ])
    assert foreign_imports(source) == [
        (1, "scipy.linalg"), (6, "pandas"), (7, "hypothesis"), (10, "torch"),
    ]


RUNTIME = sorted(path for path in PACKAGE.glob("*.py") if path.stem != "reference")


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
def test_no_runtime_module_imports_the_reference(path):
    found = reference_imports(path.read_text(encoding="utf-8"))
    assert not found, [f"{path.name}:{line}: imports hqloc.reference" for line in found]


def test_reference_checker_catches_each_form():
    source = "\n".join([
        "from .reference import Statevector",
        "from . import reference",
        "from . import circuits, reference as ref",
        "import hqloc.reference",
        "import hqloc.reference as ref",
        "from hqloc.reference import apply_gates",
        "from hqloc import reference",
        "from .circuits import Gate",
        "from . import references",
        "import hqloc.referenced",
        "def f():",
        "    from .reference import expect_z",
    ])
    assert reference_imports(source) == [1, 2, 3, 4, 5, 6, 7, 12]
