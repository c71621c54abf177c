"""Import structure of the pcspan package: every import sits at module level,
and the modules' imports of each other form no cycle, so no module relies
on an import deferred into a function to load."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcspan"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


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
