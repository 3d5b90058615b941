import ast
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import hfactor
from hfactor import cli


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports, at module level or inside a function."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .host import x" names the module; "from . import host" names it as x
            imported.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
    return imported


def _import_graph() -> dict[str, set[str]]:
    package = Path(hfactor.__file__).parent
    return {path.stem: _package_imports(path) for path in sorted(package.glob("*.py"))}


def test_package_imports_have_no_cycle():
    # each module imports only layers beneath it, so any import order works
    graph = _import_graph()
    assert {"pattern", "host", "embed", "factor", "cli"} <= graph.keys()
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:  # exc.args[1] lists the cycle against the import direction
        pytest.fail(f"import cycle: {' imports '.join(reversed(exc.args[1]))}")


# a fresh interpreter runs the code and prints the package modules it loaded
_LOADED = "import json, sys\n{}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('hfactor.'))))"


def _loaded_modules(code: str, *args: str) -> set[str]:
    src = str(Path(hfactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(code), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("hfactor.") for name in json.loads(proc.stdout)}


def test_import_loads_no_layer():
    assert _loaded_modules("import hfactor") == set()
    # cli reads patterns itself, so it needs pattern (and errors, which pattern imports)
    assert _loaded_modules("import hfactor.cli") == {"cli", "errors", "pattern"}


COMMAND_ARGS = {
    "analyze": ["--pattern", "K3"],
    "count": ["--pattern", "K2", "--n", "6", "--p", "0.8"],
    "scan": ["--pattern", "K2", "--n-list", "4", "--trials", "2"],
    "trace": ["--pattern", "K3", "--n", "6"],
    "martingale-check": ["--pattern", "K2", "--n", "4", "--trials", "2"],
    "shearer": ["--pattern", "K2", "--n", "4", "--trials", "2"],
    "window": ["--weights", "WEIGHTS"],
    "weight-lemma": ["--weights", "WEIGHTS", "--n", "4", "--v", "2"],
    "poly": ["--pattern", "K2", "--n", "6", "--p", "0.5"],
    "models": ["--pattern", "K2", "--n", "4", "--p", "0.5", "--trials", "4"],
    "regularity": ["--pattern", "K2", "--n", "6", "--p", "0.5"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_command_loads_only_its_layers(command, tmp_path):
    assert COMMAND_ARGS.keys() == cli._COMMANDS.keys()
    files = {"K2": "graph 2\n0 1\n", "K3": "graph 3\n0 1\n1 2\n0 2\n",
             "WEIGHTS": "0,1,1.0\n0,2,2.0\n2,3,1.5\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in COMMAND_ARGS[command]]
    loaded = _loaded_modules("from hfactor import cli\nassert cli.main(sys.argv[1:]) == 0",
                             command, *args, "--workers", "1", "--out", str(tmp_path / "out"))
    graph = _import_graph()
    expected = set()
    todo = ["cli", *cli._COMMANDS[command][1]]
    while todo:
        module = todo.pop()
        if module not in expected:
            expected.add(module)
            todo.extend(graph[module])
    assert loaded == expected


# public names the package no longer has; the tests check what they computed on the
# paths that stay (count, count_using_edge, flatness, shearer_check, expectation)
REMOVED_NAMES = ("copy_degree", "WeightStats", "expected_factor_count", "edge_fraction", "weight_w",
                 "b_statistic", "c_statistic", "CopyDistribution", "copy_distribution",
                 "derivative_expectation")


def test_every_public_name_resolves():
    for name in hfactor.__all__:
        assert getattr(hfactor, name).__name__ == name
    assert set(hfactor.__all__) <= set(dir(hfactor))
    for name in ("no_such_name", *REMOVED_NAMES):
        assert name not in hfactor.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(hfactor, name)


def _unused_imports(path: Path) -> list[str]:
    """Names a module binds by a module-level import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_module_has_an_unused_import():
    # the package's modules and the test files beside this one
    package = Path(hfactor.__file__).parent
    modules = [*sorted(package.glob("*.py")), *sorted(Path(__file__).parent.glob("*.py"))]
    assert [u for path in modules for u in _unused_imports(path)] == []
