"""Tooling check: the runtime depends on numpy only.

This walks the syntax tree of every module under ``src/hqloc`` and reports
each import of anything other than the standard library, numpy or hqloc
itself. Tests, demos and the benchmark may use more (pytest, Hypothesis).
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_numpy_and_stdlib_only(path):
    found = foreign_imports(path.read_text(encoding="utf-8"))
    assert not found, [f"{path.name}:{line}: {name}" for line, name in found]


def test_checker_catches_each_form():
    source = "\n".join([
        "import json, scipy.linalg",
        "from numpy.linalg import norm",
        "from hqloc.data import load_csv",
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
