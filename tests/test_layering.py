import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import hfactor


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports, at module level or inside a function."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .host import x" names the module; "from . import host" names it as x
            imported.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
    return imported


def test_package_imports_have_no_cycle():
    # each module imports only layers beneath it, so any import order works
    package = Path(hfactor.__file__).parent
    graph = {path.stem: _package_imports(path) for path in sorted(package.glob("*.py"))}
    assert {"pattern", "host", "embed", "factor", "cli"} <= graph.keys()
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:  # exc.args[1] lists the cycle against the import direction
        pytest.fail(f"import cycle: {' imports '.join(reversed(exc.args[1]))}")
