"""A repeated entry is recorded one way: through ``DiagnosticSink.first``.

Only ``errors.py``, where ``first`` lives, records ``DuplicateName`` with an
``.error(...)`` call; every other module of the package asks ``first``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigkit"


def _names_duplicate(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "DUPLICATE_NAME") \
        or (isinstance(node, ast.Name) and node.id == "DUPLICATE_NAME")


def _hand_rolled_duplicates(trees: dict[str, ast.Module]) -> list[str]:
    """``module: line`` of each ``.error(...)`` call given ``DUPLICATE_NAME``."""
    return [f"{module}: line {node.lineno}" for module, tree in sorted(trees.items())
            if module != "errors.py" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "error"
            and any(map(_names_duplicate, [*node.args, *(k.value for k in node.keywords)]))]


def test_only_first_records_a_duplicate():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert _hand_rolled_duplicates(trees) == []


def test_a_hand_rolled_duplicate_is_found():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "sink.error(E.DUPLICATE_NAME, 'x')\n"
                "sink.error(E.INVALID_VALUE, 'x')\n"
                "self.error(code=DUPLICATE_NAME, message='x')\n"
                "raise ToolkitError(E.DUPLICATE_NAME, 'x')\n"
                "sink.first(seen, key, where, 'name')\n",
        "errors.py": "self.error(DUPLICATE_NAME, 'x')\n",
    }.items()}
    assert _hand_rolled_duplicates(trees) == ["a.py: line 1", "a.py: line 3"]
