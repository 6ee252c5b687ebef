"""Checks on the package source itself."""

import ast
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from triadcomplete import SpecGraph
from triadcomplete.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "triadcomplete"
DATA = ROOT / "data"


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


def test_every_import_is_read():
    # A name a module imports is read in that module: no import outlives the
    # code that used it.  ``__init__`` re-exports the names in ``__all__``.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = list(ast.walk(tree))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                read |= set(ast.literal_eval(node.value))
        for node in nodes:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert found == []


def test_package_stands_alone(tmp_path, capsys):
    # A copy of the package, alone on the path and run from the directory
    # that holds it, gives the in-process CLI's exit codes, output and --out
    # bytes; the reference code the tests use is not part of it.
    shutil.copytree(SRC, tmp_path / "triadcomplete", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    here, there = tmp_path / "here.csv", tmp_path / "there.csv"
    runs = [
        ["check", str(DATA / "cycle_4x4.csv")],
        ["check", str(DATA / "two_blocks_8x8.csv"), "--trace"],
        ["complete", str(DATA / "partial_5x5.csv"), "--trace", "--out", "{out}"],
        ["reduce", str(DATA / "block_3x3.csv")],
    ]
    for argv in runs:
        code = main([str(here) if arg == "{out}" else arg for arg in argv])
        out, err = capsys.readouterr()
        alone = [sys.executable, "-m", "triadcomplete"]
        alone += [there.name if arg == "{out}" else arg for arg in argv]
        proc = subprocess.run(alone, capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
    assert there.read_bytes() == here.read_bytes()
    probe = "import triadcomplete; print(triadcomplete.__file__); import triadcomplete.oracle"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.stdout.strip() == str(tmp_path / "triadcomplete" / "__init__.py")
    assert proc.returncode == 1 and "ModuleNotFoundError" in proc.stderr


def test_reference_names_live_with_the_tests():
    # The reference constructions and the errors only they raise are defined
    # in tests/oracle.py; is_consistent, koczkodaj_index and max_triad repeated
    # is_pcm and triad_scan.  No package module defines any of them.
    oracle = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    moved = {node.name for node in oracle.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"complete_consistent_chordal", "rank_one_vector", "TooLargeError"} <= moved
    removed = moved | {"is_consistent", "koczkodaj_index", "max_triad"}
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in removed
    ]
    assert not (SRC / "oracle.py").exists() and found == []


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
    # helper; the reference S sets are constraint_products in tests/oracle.py.
    removed = ("TriadSets", "triad_sets_for_entry")
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in removed
    ]
    assert found == []
