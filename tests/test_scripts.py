"""The runnable scripts and the benchmark's entry points against the package.

perfbench/ and scripts/ import names from gnatty; nothing else runs them, so
a name removed from the package would go unnoticed until the benchmark or the
script is run.  The frontier table is pinned as printed.
"""

import ast
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path
from unittest.mock import Mock

import pytest

from gnatty import bench

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


def test_frontier_table(monkeypatch, capsys):
    # one calibration per query and one build per exact tree: 2 partitions x
    # 5 arities x 2 reduce factors, for gnatty and for gnat; each fp cell
    # encodes the exact tree of its coordinates
    monkeypatch.setattr(bench, "calibrate_radius", Mock(wraps=bench.calibrate_radius))
    monkeypatch.setattr(bench, "build", Mock(wraps=bench.build))
    # Re-pinned from 3f09dffd... when range tables stopped storing the
    # bounds a search derives: only the table bytes of tree rows moved, and
    # with them the row order and the dominance column.
    out = _run_script("frontier", ["--n", "600", "--queries", "20"], monkeypatch, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "232565e2eff9dd2cdafe5fd49e9667ec57865a82ac6c394f1873f61a3a82fdfd")
    assert bench.calibrate_radius.call_count == 20 and bench.build.call_count == 40

    header, *lines = out.splitlines()
    assert header.split()[:2] == ["row", "structure"]
    rows = {}
    for line in lines:
        number, *_, size, evals, by = line.split()
        rows[int(number)] = (float(size), float(evals), by)
    assert len(rows) == 82
    sizes = [size for size, _, _ in rows.values()]
    assert sizes == sorted(sizes)

    def dominates(a, b):
        return a[0] <= b[0] and a[1] <= b[1] and a[:2] != b[:2]

    frontier = [i for i, row in rows.items() if row[2] == "-"]
    assert frontier and all(row[2] == "-" or dominates(rows[int(row[2])], row)
                            for row in rows.values())
    assert not any(dominates(other, rows[i]) for i in frontier for other in rows.values())

