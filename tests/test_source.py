"""Checks on the package source itself."""

import ast
from dataclasses import fields
from pathlib import Path

from triadcomplete import SpecGraph

SRC = Path(__file__).resolve().parents[1] / "src" / "triadcomplete"


def test_no_assert_statements():
    # Runtime invariant checks must survive ``python -O``, which strips asserts.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_paths(node):
    if isinstance(node, ast.ImportFrom):
        base = (node.module or "").split(".")
        return [base + [alias.name] for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".") for alias in node.names]
    return []


def test_product_modules_do_not_import_oracle():
    # oracle.py holds the reference constructions the tests compare
    # against; only the package namespace re-exports it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("__init__.py", "oracle.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if any("oracle" in parts for parts in _imported_paths(node))
    ]
    assert found == []


def test_graphs_does_not_import_matrices():
    # A matrix owns its graph, so the dependency runs matrices -> graphs only.
    path = SRC / "graphs.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if any("matrices" in parts for parts in _imported_paths(node))
    ]
    assert found == []


def test_matrix_is_one_array():
    # NaN in ``entries`` is the only mark of an unspecified entry: no module
    # builds a matrix from a second array or writes into a mask.
    constructors = ("PartialReciprocalMatrix", "CompleteReciprocalMatrix")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and len(node.args) + len(node.keywords) > 1:
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in constructors:
                    found.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            for target in getattr(node, "targets", None) or [node.target]:
                for t in ast.walk(target):
                    if isinstance(t, ast.Subscript) and "mask" in (
                        getattr(t.value, "id", None), getattr(t.value, "attr", None)
                    ):
                        found.append(f"{path.name}:{t.lineno}")
    assert found == []


def test_commands_return_sections_and_main_writes_them():
    # ``cli.main`` loads the file, builds the tolerances and prints every
    # report; a ``cmd_*`` function returns only its own sections.
    path = SRC / "cli.py"
    found = []
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("load_matrix", "Tolerances") and fn.name != "main" or (
                name == "print" and fn.name.startswith("cmd_")
            ):
                found.append(f"{fn.name}:{node.lineno} {name}")
    assert found == []


def test_graph_is_its_bitsets():
    # ``SpecGraph.bits`` is the one graph representation: no second stored
    # field, and no module reads a neighbour-set view (``.adj``) of the graph.
    assert [f.name for f in fields(SpecGraph)] == ["bits"]
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "adj"
    ]
    assert found == []


def _called_names(fn):
    return {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_one_interval_path():
    # The interval for an entry is built in one function: the engine's fill
    # step and the library's feasible_interval both call it, and only it
    # calls FeasibleInterval.of.
    path = SRC / "completion.py"
    fns = {
        node.name: node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef)
    }
    builders = [name for name, fn in fns.items() if "FeasibleInterval.of" in _called_names(fn)]
    assert len(builders) == 1
    for caller in ("feasible_interval", "_fill_step"):
        assert builders[0] in _called_names(fns[caller])


def test_no_second_triad_set_route():
    # The products a[i,j]·a[j,k] around an entry are formed by the interval
    # helper; the reference S sets live in oracle.constraint_products.
    removed = ("TriadSets", "triad_sets_for_entry")
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in removed
    ]
    assert found == []
