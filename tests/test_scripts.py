"""The runnable scripts and the benchmark's entry points against the package.

perfbench/ and scripts/ import names from gnatty; nothing else runs them, so
a name removed from the package would go unnoticed until the benchmark or the
script is run.  The equal-memory table is pinned as printed.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])


def _gnatty_imports(path):
    """(module, name or None) for each gnatty import in the file, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "gnatty" or node.module.startswith("gnatty.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gnatty" or alias.name.startswith("gnatty."):
                    yield alias.name, None


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_exist(path):
    imports = list(_gnatty_imports(path))
    assert imports, f"{path.name} imports nothing from gnatty"
    for module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None:
            assert hasattr(loaded, name), f"{path.name}: {module} has no {name}"


def _run_script(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    script.main()
    return capsys.readouterr().out


def test_equal_memory_table(monkeypatch, capsys):
    out = _run_script("equal_memory", ["--n", "600", "--queries", "20"], monkeypatch, capsys)
    assert out == (
        "             structure    entries  total evals  mean evals\n"
        "      gnatty alpha=0.5       2283        10850       542.5\n"
        "              gnat m=5       2275        10833       541.6\n"
        "                  aesa     179700         3498       174.9\n"
        "          lc bucket=32         19        11790       589.5\n")
