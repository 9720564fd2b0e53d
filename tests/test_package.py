"""The bare package: ``hqloc`` holds a docstring and ``__version__``, and imports nothing.

Every other name is imported from the module that defines it, so importing
one module loads only what that module imports.
"""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import hqloc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hqloc"


def test_init_holds_no_import():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert hqloc.__version__ == tomllib.load(f)["project"]["version"]


def test_importing_qlayer_loads_only_its_dependencies():
    code = (
        "import sys, hqloc.qlayer; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'hqloc')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    # The layer reads the ansatz's gate list but loads neither the sampler nor the simulator.
    assert proc.stdout.split() == ["hqloc", "hqloc.circuits", "hqloc.qlayer"]


def test_package_imports_name_modules_only():
    # ``from hqloc import x`` (``from . import x`` inside the package) must name a module.
    modules = {path.stem for path in PACKAGE.glob("*.py")} | {"__version__"}
    found = []
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                    ("hqloc", 0), (None, 1)
                ):
                    found += [f"{path.name}:{a.name}" for a in node.names if a.name not in modules]
    assert found == []
