"""Every error code that ``errors.py`` defines is read by some module of the package."""

import ast
from pathlib import Path

from test_private_names import _read_names

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigkit"


def _codes(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each top-level upper-case name assigned a string: the
    module's error codes."""
    return {target.id: node.lineno for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper()}


def _unread_codes(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_read_names, trees.values()))
    return [f"{name} (line {line})" for name, line in _codes(trees["errors.py"]).items()
            if name not in read]


def test_every_error_code_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert _unread_codes(trees) == []


def test_an_unread_error_code_is_found():
    trees = {name: ast.parse(text) for name, text in {
        "errors.py": "SEEN = 'Seen'\n"
                     "LOCAL = 'Local'\n"
                     "IMPORTED = 'Imported'\n"
                     "STALE = 'Stale'\n"
                     "__version__ = '1'\n"
                     "LIMIT = 3\n"
                     "def f():\n"
                     "    return LOCAL\n",
        "a.py": "from . import errors as E\n"
                "from .errors import IMPORTED\n"
                "E.SEEN\n"
                "STALE = 'elsewhere'\n",
    }.items()}
    assert _unread_codes(trees) == ["STALE (line 4)"]
