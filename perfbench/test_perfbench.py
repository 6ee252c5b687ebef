"""Tests for the benchmark itself: generators, output checker and tracer.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest

import checker
import run
import spans
import workloads
from triadcomplete import cli, measures, parse_matrix
from triadcomplete.graphs import SpecGraph

HERE = Path(__file__).resolve().parent


def _run(inst: workloads.Instance, tmp_path: Path):
    """Run one operation; returns (results, out_text) as the benchmark sees them."""
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(inst.text, encoding="utf-8")
    results = []
    for argv in workloads.commands(inst.workload, str(src), str(out)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        results.append((argv, code, stdout.getvalue()))
    return results, out.read_text(encoding="utf-8")


def _edit(out_text: str, cells: dict[tuple[int, int], str]) -> str:
    grid = checker.tokens(out_text)
    for (i, j), tok in cells.items():
        grid[i][j] = tok
    return "".join(",".join(row) + "\n" for row in grid)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_byte_identical_per_seed(workload):
    for index in range(3):
        first = workloads.make_instance(workload, 11, index)
        again = workloads.make_instance(workload, 11, index)
        assert first == again
        assert first.text != workloads.make_instance(workload, 12, index).text


def test_patterns_have_the_promised_shape():
    for index in range(6):
        inst = workloads.make_instance("chordal-fill", 3, index)
        g = nx.Graph(list(_edges(inst)))
        assert nx.is_chordal(g) and nx.is_connected(g)
        assert any(len(c) >= 3 for c in nx.find_cliques(g))
    for index in range(6):
        inst = workloads.make_instance("consistent-large", 3, index)
        assert len(inst.components) == 1 + (index // 3) % 2
        for comp in inst.components:
            sub = nx.Graph(list(_edges(inst))).subgraph(comp)
            assert nx.is_connected(sub) and not nx.is_chordal(sub)


def _edges(inst):
    grid = checker.tokens(inst.text)
    return [(i, j) for i, row in enumerate(grid) for j, t in enumerate(row) if j > i and t != "?"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("index", [0, 9, 10])
def test_checker_accepts_the_program_outputs(workload, index, tmp_path):
    inst = workloads.make_instance(workload, 5, index)
    results, out_text = _run(inst, tmp_path)
    assert checker.check_operation(inst, results, out_text).problems == []


def test_checker_rejects_a_tampered_cell(tmp_path):
    inst = workloads.make_instance("chordal-fill", 5, 0)
    results, out_text = _run(inst, tmp_path)
    src = checker.tokens(inst.text)
    i, j = _edges(inst)[0]
    # Same value, other spelling: only the token check can see it.
    respelled = _edit(out_text, {(i, j): repr(float(checker.values(src)[i, j])) + "0"})
    problems = checker.check_operation(inst, results, respelled).problems
    assert any("rewritten" in p for p in problems)


def test_checker_rejects_a_broken_reciprocal(tmp_path):
    inst = workloads.make_instance("consistent-large", 5, 0)
    results, out_text = _run(inst, tmp_path)
    i, j = _edges(inst)[0]
    doubled = 2 * checker.values(checker.tokens(out_text))[j, i]
    broken = _edit(out_text, {(j, i): repr(float(doubled))})
    problems = checker.check_operation(inst, results, broken).problems
    assert problems == ["output is not reciprocal"]


def test_checker_rejects_an_mt_raising_fill(tmp_path):
    inst = workloads.make_instance("chordal-fill", 5, 1)
    results, out_text = _run(inst, tmp_path)
    src = checker.tokens(inst.text)
    i, j = next((i, j) for i, row in enumerate(src) for j, t in enumerate(row) if t == "?")
    raised = _edit(out_text, {(i, j): "1000", (j, i): "1/1000"})
    problems = checker.check_operation(inst, results, raised).problems
    assert any("raised MT" in p for p in problems)


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    inst = workloads.make_instance("reduce-repair", 5, 0)
    results, out_text = _run(inst, tmp_path)
    (argv, code, stdout) = results[1]
    flipped = [results[0], (argv, 1 - code, stdout)]
    assert any("exited" in p for p in checker.check_operation(inst, flipped, out_text).problems)


def test_checker_mt_matches_the_package():
    for workload in workloads.WORKLOADS:
        inst = workloads.make_instance(workload, 8, 0)
        m, _ = parse_matrix(inst.text)
        assert checker.mt(checker.values(checker.tokens(inst.text))) == pytest.approx(
            measures.mt(m), rel=1e-12
        )


def test_span_tree_has_parents_and_nonnegative_self_time(tmp_path):
    inst = workloads.make_instance("chordal-fill", 5, 1)
    before = (measures.mt, cli.main, vars(SpecGraph)["from_matrix"])
    with spans.Tracer() as tracer:
        assert measures.mt is not before[0]
        _run(inst, tmp_path)
    assert (measures.mt, cli.main, vars(SpecGraph)["from_matrix"]) == before
    recorded = tracer.take()
    roots = [s for s in recorded if s.parent == -1]
    assert [s.name for s in roots] == ["cli.main", "cli.main"]  # check, then complete
    for idx, s in enumerate(recorded):
        assert s.start <= s.end
        if s.parent >= 0:
            parent = recorded[s.parent]
            assert s.parent < idx and parent.start <= s.start and s.end <= parent.end
    profile = spans.Profile()
    one = profile.add(recorded)
    assert min(one.self_s.values()) >= -1e-9
    # Every specified_triads call made for an entry is thrown away.
    assert one.pairs["measures.triad_sets_for_entry", "measures.specified_triads"] == (
        one.calls["measures.triad_sets_for_entry"]
    ) > 0
    assert sum(profile.layer_self_s(layer) for layer in spans.LAYERS) == pytest.approx(
        sum(s.end - s.start for s in roots), rel=1e-9
    )


def test_consistent_large_classifies_each_component_once(tmp_path):
    inst = workloads.make_instance("consistent-large", 5, 3)
    assert len(inst.components) == 2
    with spans.Tracer() as tracer:
        _run(inst, tmp_path)
    one = spans.Profile().add(tracer.take())
    assert one.calls["graphs.is_chordal"] == 2
    assert one.calls["graphs.chordal_ordering"] == one.calls["measures.specified_triads"] == 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chordal-fill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_memory_rerun_records_a_peak_and_is_still_checked(tmp_path):
    runner = run.Runner(cli, "reduce-repair", 5, tmp_path)
    op = runner.new_op(0)
    runner.run(op)
    runner.run(op, memory=True)
    assert runner.peak_bytes > 0 and not tracemalloc.is_tracing()
    assert runner.attempted == 2 and runner.failures == []
