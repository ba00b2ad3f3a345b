"""Every private top-level name in the package is read by some module of it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigkit"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each top-level function, class or assignment whose
    name starts with ``_`` and is not a dunder."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    return defined


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, reads as an attribute or imports from another."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_read_names, trees.values()))
    return [f"{module}: {name} (line {line})" for module, tree in sorted(trees.items())
            for name, line in _private_definitions(tree).items() if name not in read]


def test_every_private_top_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert _unread_private_names(trees) == []


def test_an_unread_private_name_is_found():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "def _used(): pass\n"
                "def _dead(): pass\n"
                "class _Dead: pass\n"
                "_CONST, _DEAD = 1, 2\n"
                "__version__ = '1'\n"
                "_ATTR: int = 3\n",
        "b.py": "from .a import _used\n"
                "from . import a\n"
                "_used(a._CONST, a._ATTR)\n"
                "_dead_local = None\n"
                "def f():\n"
                "    _dead = 1\n",
    }.items()}
    assert _unread_private_names(trees) == [
        "a.py: _dead (line 2)", "a.py: _Dead (line 3)", "a.py: _DEAD (line 4)",
        "b.py: _dead_local (line 4)"]
