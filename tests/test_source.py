"""Checks on the package source itself."""

import ast
from pathlib import Path

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
