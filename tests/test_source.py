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
