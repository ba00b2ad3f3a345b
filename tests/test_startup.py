"""Start-up cost: ``import trigkit.cli`` loads neither ``dataclasses`` nor
``inspect``, the modules that generated record classes would pull in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trigkit"


def _dataclasses_imports(tree: ast.Module) -> list[int]:
    """Lines of every import of ``dataclasses``, at any depth."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.partition(".")[0] == "dataclasses" for module in modules):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_dataclasses():
    found = {path.name: _dataclasses_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_dataclasses_import_is_found():
    tree = ast.parse("import os, dataclasses as dc\n"
                     "from dataclasses import field\n"
                     "from .dataclasses import x\n"
                     "def f():\n"
                     "    import dataclasses.fields\n")
    assert _dataclasses_imports(tree) == [1, 2, 5]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", "import trigkit.cli; import sys; "
                               "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
