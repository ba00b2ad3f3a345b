"""Every top-level import in the package is read by the module that makes it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigkit"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module reads; a name the module lists in ``__all__`` counts as read."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    read.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_unused_top_level_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom typing import Any, Sequence as Seq\n"
                     "from . import errors as E\n"
                     "__all__ = ['Any']\nE.X\n")
    assert _unused_imports(tree) == ["os (line 2)", "Seq (line 3)"]
