"""Start-up cost: ``import trigkit.cli`` loads neither ``dataclasses`` nor
``inspect``, the modules that generated record classes would pull in, nor
``orjson`` or ``yaml``. orjson writes only a catalog or case set large
enough to repay its import (``cli._BULK_CONDITIONS`` and ``cli._BULK_CASES``
hold the sizes and the measurements behind them), so ``generate`` and
``compose`` on the bundled project, 49 conditions and 61 cases, never load
it. PyYAML reads only a document outside the subset ``docio`` reads itself,
so no command on the bundled project loads it either."""

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


def _child(code: str, cwd: Path | None = None) -> str:
    """The standard output of a fresh ``python -c code`` that imports this
    checkout's package."""
    env = dict(os.environ)
    env.pop("TRIGKIT_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True).stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _child("import trigkit.cli; import sys; print(sorted("
                  "{'dataclasses', 'inspect', 'orjson', 'yaml'} & set(sys.modules)))") == "[]\n"


def test_the_bundled_chain_never_loads_orjson(tmp_path):
    """``generate``, ``compose`` and ``report`` on the bundled project, in one
    fresh process, as a ``python -m trigkit`` child runs each, load neither
    orjson nor PyYAML."""
    config = PACKAGE / "data" / "project.yaml"
    assert _child("import sys; from trigkit.cli import main; "
                  + "".join(f"assert main(['--config', {str(config)!r}, {command!r}]) == 0; "
                            for command in ("generate", "compose", "report"))
                  + "print(sorted({'orjson', 'yaml'} & set(sys.modules)))",
                  cwd=tmp_path).splitlines()[-1] == "[]"
