"""Tooling check: no hqloc module or demo reaches into another module's private names.

An underscore-prefixed name is private to the module that defines it. This
walks the syntax tree of every file under ``src/hqloc`` and ``demos`` and
reports imports of such names from another hqloc module and attribute
accesses on another hqloc module. Tests are exempt: they may probe internals.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hqloc"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
CHECKED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _target(node: ast.ImportFrom) -> str | None:
    """Submodule name, "" for the package itself, None for a non-hqloc import."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "hqloc":
        return node.module.partition(".")[2]
    return None


def private_uses(source: str, own: str | None) -> list[tuple[int, str]]:
    """(line, dotted name) of each private name taken from another hqloc module.

    ``own`` is the checked file's module name under ``hqloc`` (None for a
    script), whose private names it may use freely.
    """
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> hqloc module ("" for the package)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (target := _target(node)) is not None:
            for alias in node.names:
                if target == "" and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif target != own and _private(alias.name):
                    found.append((node.lineno, f"{target or 'hqloc'}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "hqloc":
                    continue
                if alias.asname:
                    bound[alias.asname] = ".".join(parts[1:])
                else:
                    bound["hqloc"] = ""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            chain.insert(0, value.attr)
            value = value.value
        if not isinstance(value, ast.Name) or value.id not in bound:
            continue
        module = bound[value.id]
        if module == "" and chain[0] in MODULES:
            module, chain = chain[0], chain[1:]
        # Only the node whose last attribute is the module member counts, so
        # `mod._name.attr` is reported once.
        if len(chain) == 1 and module != own and _private(chain[0]):
            found.append((node.lineno, f"{module or 'hqloc'}.{chain[0]}"))
    return sorted(found)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_cross_module_private_names(path):
    own = path.stem if path.parent == PACKAGE else None
    uses = private_uses(path.read_text(encoding="utf-8"), own)
    assert not uses, [f"{path.name}:{line}: {name}" for line, name in uses]


def test_checker_catches_each_form():
    source = "\n".join([
        "from .train_eval import _batch, evaluate_rmse",
        "from hqloc.data import _csv_rows",
        "from . import train_eval",
        "import hqloc.qlayer as ql",
        "import hqloc",
        "train_eval._model_ops",
        "ql._shot_seed",
        "hqloc.data._csv_rows",
        "from .circuits import N_FEATURES",
        "from .qlayer import _Z_SIGNS",
        "train_eval.__name__",
        "qlayer = None",
        "qlayer._anything",
    ])
    assert private_uses(source, own="cli") == [
        (1, "train_eval._batch"),
        (2, "data._csv_rows"),
        (6, "train_eval._model_ops"),
        (7, "qlayer._shot_seed"),
        (8, "data._csv_rows"),
        (10, "qlayer._Z_SIGNS"),
    ]


def test_own_private_names_are_allowed():
    source = "from .qlayer import _Z_SIGNS\nimport hqloc.qlayer as q\nq._shot_seed\n"
    assert private_uses(source, own="qlayer") == []
