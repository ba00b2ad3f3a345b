"""Every top-level import in the package is read by the module that makes it,
and only the fallback YAML reader imports PyYAML."""

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


def _yaml_imports(tree: ast.Module, scope: str) -> list[str]:
    """Where ``tree``, the module named ``scope``, imports ``yaml``: the dotted
    name of the function or class around each such import, or ``scope`` at
    the top level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(module.partition(".")[0] == "yaml" for module in modules):
            found.append(scope)
        inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found += _yaml_imports(node, f"{scope}.{node.name}" if inner else scope)
    return found


def test_only_the_fallback_reader_imports_yaml():
    where = [place for path in sorted(PACKAGE.glob("*.py"))
             for place in _yaml_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert where == ["docio._pyyaml"]


def test_a_yaml_import_is_found():
    tree = ast.parse("import json, yaml.constructor\n"
                     "class A:\n    def f(self):\n        from yaml import safe_dump\n"
                     "def g():\n    if True:\n        import yaml as y\n"
                     "def h():\n    from . import yaml\n    import yamlish\n")
    assert _yaml_imports(tree, "m") == ["m", "m.A.f", "m.g"]
