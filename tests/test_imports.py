"""Import structure of the pcspan package: every import sits at module level,
and the modules' imports of each other form no cycle, so no module relies
on an import deferred into a function to load.  `lpsolve` loads only
scipy's HiGHS extension, never scipy.optimize, and shares that module with
scipy.optimize in either import order."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcspan"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

# a fresh interpreter's imports, in order, for each import-order case
ORDERS = {
    "pcspan first": "import pcspan.lpsolve\nimport scipy.optimize\n",
    "scipy.optimize first": "import scipy.optimize\nimport pcspan.lpsolve\n",
}


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that finds pcspan's sources."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _imported_modules(node) -> set:
    """Names of the package modules one import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {parts[1] for parts in names if parts[0] == "pcspan" and len(parts) > 1}
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "pcspan":
            return set()
        tail = parts[1:]
    else:
        tail = node.module.split(".") if node.module else []
    if tail:
        return {tail[0]}
    # "from . import io": each name is a module
    return {alias.name for alias in node.names}


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_import_inside_a_function():
    nested = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.py:{node.lineno}" for node in _imports(fn)]
    assert nested == []


def test_package_imports_form_no_cycle():
    graph = {
        name: sorted(set().union(*map(_imported_modules, _imports(tree))) - {"__init__"})
        for name, tree in MODULES.items()
        if name != "__init__"
    }
    assert all(dep in graph for deps in graph.values() for dep in deps), graph
    # depth-first search; a grey module reached again closes a cycle
    state = {}

    def visit(name, path):
        state[name] = "grey"
        for dep in graph[name]:
            if state.get(dep) == "grey":
                raise AssertionError("import cycle: " + " -> ".join(path + [name, dep]))
            if dep not in state:
                visit(dep, path + [name])
        state[name] = "black"

    for name in graph:
        if name not in state:
            visit(name, [])


def test_cli_does_not_import_scipy_optimize():
    code = "import sys\nimport pcspan.cli\nprint('scipy.optimize' in sys.modules)\n"
    assert _run_fresh(code) == "False"


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_highs_is_shared_with_scipy_optimize_in_either_import_order(order):
    code = ORDERS[order] + (
        "import sys\n"
        "print(pcspan.lpsolve.highs is sys.modules['scipy.optimize._highspy._core'])\n"
        "res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], method='highs')\n"
        "print(res.status, res.fun)\n"
    )
    assert _run_fresh(code).splitlines() == ["True", "0 1.0"]


def test_missing_extension_raises_import_error_naming_the_directory(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = (
        f"import sys\nsys.path.insert(0, {str(tmp_path)!r})\n"
        "try:\n    import pcspan.lpsolve\nexcept ImportError as exc:\n    print(exc)\n"
    )
    directory = tmp_path / "scipy" / "optimize" / "_highspy"
    assert _run_fresh(code) == f"no HiGHS extension _core in {directory}"
