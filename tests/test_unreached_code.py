"""`src/pcspan` holds only code that something reaches.

Every module-level function and every class of `src/pcspan/*.py` is
referenced from `src/pcspan` by a name load or an attribute (an import alone
does not count), and every method by an attribute (a local variable of the
same name does not reach it).  The exceptions are the names exported in
`pcspan.__all__` and the names that only the benchmark's tracer
(`bench/tracer.py`) wraps or reads.  Dunder methods run implicitly and are
not checked.
"""

import ast
from pathlib import Path

import pcspan

SRC = Path(pcspan.__file__).resolve().parent

# bench/tracer.py wraps or imports these by name; the solve never reaches them
TRACER_ONLY = {
    "RoundingFailureError",
    "connectable_relation_pairs",
    "fallback_tree",
    "labels",  # ProductGraph.labels, read for the traced product.labels count
    "states_reachable_from_root_right",
    "states_reaching_root_left",
    "through_root_witness",
}


def _is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions_and_references():
    """([(qualified name, name, is a method)] of every checked definition,
    {names loaded by name}, {names referenced as an attribute}) over
    `src/pcspan`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    loaded = set()
    attributes = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            defined.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, functions) and not _is_dunder(item.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined, loaded, attributes


def test_src_defines_nothing_unreached_but_the_tracer_only_names():
    defined, loaded, attributes = definitions_and_references()
    unreached = {
        qualified: name
        for qualified, name, method in defined
        if name not in attributes
        and (method or name not in loaded)
        and name not in pcspan.__all__
    }
    # the pinned list names exactly what is left: once the tracer no longer
    # needs a name, it goes from src and from the list together
    assert sorted(unreached.values()) == sorted(TRACER_ONLY), unreached
