import argparse
import errno
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cases
import oracle
from triadcomplete import cli, completion, fileio, graphs, matrices, measures, reduction
from triadcomplete.cli import CHUNK_ROWS, _json, main
from triadcomplete.completion import CompletionStep, FeasibleInterval
from triadcomplete.errors import MatrixError
from triadcomplete.fileio import format_matrix, parse_matrix
from triadcomplete.matrices import validate
from triadcomplete.reduction import ReductionStep

DATA = Path(__file__).resolve().parents[1] / "data"

FIVE_TEXT = """\
1,6,1/2,1,?
1/6,1,1/3,1/2,?
2,3,1,2,2
1,2,1/2,1,1/2
?,?,1/2,2,1
"""

CYCLE_TEXT = """\
1,2,?,4
1/2,1,1/3,?
?,3,1,5
1/4,?,1/5,1
"""

CYCLE_FIXED_TEXT = CYCLE_TEXT.replace("1,2,?,4", "1,2,?,10/3").replace(
    "1/4,?,1/5,1", "3/10,?,1/5,1"
)

BLOCK_TEXT = """\
1,2,1/3
1/2,1,1/3
3,3,1
"""

# Valid cells whose triad products (and the value filled into the gap)
# overflow double precision.
HUGE_TEXT = "1,1e200,1e-200\n1e-200,1,1e200\n1e200,1e-200,1\n"
HUGE_PARTIAL_TEXT = "1,1e200,?\n1e-200,1,1e200\n?,1e-200,1\n"
# A tree (edges 1-4, 4-2, 2-3) whose spanning-tree weights underflow to 0.
HUGE_TREE_TEXT = "1,?,?,1e200\n?,1,1e200,1e-200\n?,1e-200,1,?\n1e-200,1e200,?,1\n"
# The 'hi' fill of (1, 4) overflows only inside triad (2, 3, 4).
HUGE_CLIQUE_TEXT = (
    "1,1e150,1e-100,?\n1e-150,1,1e-100,?\n1e100,1e100,1,1e200\n?,?,1e-200,1\n"
)

# Valid cells where an earlier fill at an interval end makes a product
# a[i,j]·a[j,k] through a later unspecified entry leave double range.
OVERFLOW_A_TEXT = """\
1,2.8093383529649015e-19,2.1848318629159683e+21,5.674117073494519e-64
3.559557000119357e+18,1,?,5.339518631222741e+129
4.577011242711181e-22,?,1,?
1.7623887329930082e+63,1.8728280001731196e-130,?,1
"""
OVERFLOW_B_TEXT = """\
1,6.539411053412397e+76,?,?
1.5291896958796922e-77,1,5.487231740227553e-114,1.798258002602326e-49
?,1.822412552159735e+113,1,2.2207719700094362e-149
?,5.560937299057548e+48,4.502938678552174e+148,1
"""

# The 'lo' fill of (1, 3) is 1e-310, whose reciprocal overflows.
SUBNORMAL_FILL_TEXT = "1,1e-150,?,1e-140\n1e150,1,1e-150,1\n?,1e150,1,1e160\n1e140,1,1e-160,1\n"
TWO_BLOCK_TEXT = "1,2,?,?\n1/2,1,?,?\n?,?,1,3\n?,?,1/3,1\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run_json(argv, capsys):
    code = main(argv + ["--trace"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_module(argv) -> subprocess.CompletedProcess:
    """``python -m triadcomplete *argv`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "triadcomplete", *argv], capture_output=True, text=True, env=env
    )


class TestCheck:
    def test_cycle_pattern(self, write, capsys):
        path = write("cycle.csv", CYCLE_TEXT)
        code, doc = run_json(["check", path], capsys)
        assert code == 1
        cls = doc["classification"]
        assert cls["pcm"] is True
        assert cls["pc_plus"] is False
        assert cls["all_components_chordal"] is False
        assert sorted(cls["components"][0]["witness_cycle"]) == [1, 2, 3, 4]
        assert not cls["consistent_completion_exists"]

    def test_five_by_five(self, write, capsys):
        path = write("five.csv", FIVE_TEXT)
        code, doc = run_json(["check", path], capsys)
        assert code == 1
        assert doc["classification"]["pcm"] is False
        assert doc["classification"]["all_components_chordal"] is True
        assert doc["measures"]["mt"] == pytest.approx(4.0, rel=1e-12)

    def test_consistent_complete_file(self, write, capsys):
        path = write("ok.csv", "1,2,4\n1/2,1,2\n1/4,1/2,1\n")
        code, doc = run_json(["check", path], capsys)
        assert code == 0
        assert doc["classification"]["consistent_completion_exists"]
        assert doc["measures"]["mt"] == pytest.approx(1.0)

    def test_invalid_file_exit_two(self, write, capsys):
        path = write("bad.csv", "1,2\n3,1\n")
        assert main(["check", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent/nope.csv"]) == 2

    def test_human_output(self, write, capsys):
        path = write("cycle.csv", CYCLE_TEXT)
        main(["check", path])
        out = capsys.readouterr().out
        assert "PCM: yes" in out
        assert "PC+: no" in out
        assert "consistent completion possible: no" in out


class TestMeasure:
    def test_completed_five(self, write, capsys):
        m = cases.five_completed()
        from triadcomplete.fileio import format_matrix

        path = write("ntilde.csv", format_matrix(m))
        code, doc = run_json(["measure", path], capsys)
        assert code == 0
        assert doc["measures"]["mt"] == pytest.approx(4.0, rel=1e-9)
        assert doc["measures"]["koczkodaj"] == pytest.approx(0.75, rel=1e-9)
        assert doc["measures"]["max_triad"]["indices"] == [1, 2, 3]

    def test_tree_pattern(self, write, capsys):
        path = write("tree.csv", "1,2,?\n1/2,1,3\n?,1/3,1\n")
        code, doc = run_json(["measure", path], capsys)
        assert doc["measures"]["mt"] == 1.0
        assert doc["measures"]["specified_triads"] == 0
        assert doc["measures"]["max_triad"] is None

    def test_sub_block_orientation(self, write, capsys):
        path = write("sub.csv", "1,1/3,1/2,?\n3,1,2,2\n2,1/2,1,1/2\n?,1/2,2,1\n")
        code, doc = run_json(["measure", path], capsys)
        assert doc["measures"]["mt"] == pytest.approx(2.0, rel=1e-12)
        assert doc["measures"]["max_triad"]["indices"] == [4, 3, 2]
        assert doc["measures"]["max_triad"]["value"] == pytest.approx(2.0, rel=1e-12)


class TestComplete:
    def test_consistent_mode_cycle_fixed(self, write, capsys, tmp_path):
        path = write("fixed.csv", CYCLE_FIXED_TEXT)
        out = str(tmp_path / "done.csv")
        code, doc = run_json(["complete", path, "--mode", "consistent", "--out", out], capsys)
        assert code == 0 and doc["completion"]["steps"] == []
        pairs = doc["classification"]["unspecified_pairs"]
        filled = {(i, j): float(doc["matrix"][i - 1][j - 1]) for i, j in pairs}
        assert filled[(1, 3)] == pytest.approx(2 / 3, rel=1e-9)
        assert filled[(2, 4)] == pytest.approx(5 / 3, rel=1e-9)
        again, _ = parse_matrix(Path(out).read_text())
        assert again.is_complete()
        assert float(again.entries[0, 2]) == pytest.approx(2 / 3, rel=1e-9)

    def test_mt_preserving_five(self, write, capsys):
        path = write("five.csv", FIVE_TEXT)
        code, doc = run_json(
            ["complete", path, "--mode", "mt-preserving", "--selection", "minimax"],
            capsys,
        )
        assert code == 0
        steps = doc["completion"]["steps"]
        assert [s["edge"] for s in steps] == [[2, 5], [1, 5]]
        assert steps[0]["value"] == pytest.approx(0.408248, abs=1e-6)
        assert steps[1]["value"] == pytest.approx(1.106681, abs=1e-6)
        assert doc["completion"]["mt_after"] == pytest.approx(4.0, rel=1e-9)

    def test_auto_prefers_consistent(self, write, capsys):
        path = write("fixed.csv", CYCLE_FIXED_TEXT)
        code, doc = run_json(["complete", path], capsys)
        assert code == 0
        assert doc["completion"]["mode"] == "consistent"
        assert doc["completion"]["engine"] == "consistent-pc-plus"

    def test_auto_falls_back_to_mt_preserving(self, write, capsys):
        path = write("five.csv", FIVE_TEXT)
        code, doc = run_json(["complete", path], capsys)
        assert code == 0
        assert doc["completion"]["mode"] == "mt-preserving"

    def test_no_consistent_completion_exit_one(self, write, capsys):
        path = write("cycle.csv", CYCLE_TEXT)
        assert main(["complete", path, "--mode", "consistent"]) == 1
        err = capsys.readouterr().err
        assert "error" in err

    def test_mt_preserving_rejects_non_chordal(self, write, capsys):
        path = write("cycle.csv", CYCLE_TEXT)
        assert main(["complete", path, "--mode", "mt-preserving"]) == 1

    def test_complete_matrix_rejected(self, write, capsys):
        path = write("full.csv", BLOCK_TEXT)
        assert main(["complete", path]) == 2

    def test_join_flags(self, write, capsys):
        two_blocks = "1,2,?,?\n1/2,1,?,?\n?,?,1,5\n?,?,1/5,1\n"
        path = write("blocks.csv", two_blocks)
        code, doc = run_json(
            ["complete", path, "--join-k", "2.5", "--join-cols", "2,1"], capsys
        )
        assert code == 0
        assert doc["completion"]["engine"] == "consistent-chordal"
        m, _ = parse_matrix("\n".join(",".join(r) for r in doc["matrix"]))
        # u is the merged block's column at its 2nd vertex, v the new
        # block's first column; the (u-vertex, v-vertex) cross entry is k.
        assert float(m.entries[1, 2]) == pytest.approx(2.5, rel=1e-12)

    def test_bad_join_flags_exit_two(self, write, capsys, tmp_path):
        blocks = write("blocks.csv", "1,2,?,?\n1/2,1,?,?\n?,?,1,5\n?,?,1/5,1\n")
        connected = write("five.csv", FIVE_TEXT)
        out = tmp_path / "done.csv"
        for path, flag in [
            (blocks, "--join-k=-1"),
            (blocks, "--join-k=nan"),
            (blocks, "--join-k=inf"),
            (blocks, "--join-k=0"),
            (blocks, "--join-cols=9,1"),
            (blocks, "--join-cols=1,3"),
            (blocks, "--join-cols=0,1"),
            (connected, "--join-cols=0,1"),
        ]:
            assert main(["complete", path, flag, "--out", str(out)]) == 2, flag
            err = capsys.readouterr().err
            assert "error" in err and "Traceback" not in err
            assert flag.split("=")[0] in err  # --join-k or --join-cols
            assert not out.exists()

    @pytest.mark.parametrize("cols", ["a,b", "1", "1,2,3"])
    def test_unparsable_join_cols_exit_two(self, write, capsys, cols):
        path = write("blocks.csv", "1,2,?,?\n1/2,1,?,?\n?,?,1,5\n?,?,1/5,1\n")
        assert main(["complete", path, "--join-cols", cols]) == 2
        err = capsys.readouterr().err
        assert "--join-cols expects two comma-separated one-based indices" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n, d", [(8, 3e-10), (40, 9e-10)])
    def test_chordal_pcm_at_tolerance_edge_keeps_mt(self, write, capsys, n, d):
        # a[i,i+1] = 2 and a[i,i+2] = 4 / (1 + d) on even i, 4 on odd i: a
        # chordal PCM whose triads reach mt = 1 + d, just inside tol.cons.
        cells = {}
        for i in range(n - 1):
            cells[i, i + 1] = 2.0
        for i in range(n - 2):
            cells[i, i + 2] = 4.0 / (1.0 + d) if i % 2 == 0 else 4.0
        rows = [["1" if i == j else "?" for j in range(n)] for i in range(n)]
        for (i, j), v in cells.items():
            rows[i][j], rows[j][i] = repr(v), repr(1.0 / v)
        path = write("ladder.csv", "\n".join(",".join(r) for r in rows) + "\n")
        code, doc = run_json(["complete", path, "--mode", "consistent"], capsys)
        assert code == 0
        comp = doc["completion"]
        assert comp["engine"] == "consistent-chordal"
        assert comp["mt_after"] <= comp["mt_before"] * (1.0 + 1e-12)

    def test_deterministic_output(self, write, capsys):
        path = write("five.csv", FIVE_TEXT)
        main(["complete", path, "--trace"])
        first = capsys.readouterr().out
        main(["complete", path, "--trace"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("cmp", [[], ["--tol-cmp", "1e-7"], ["--tol-cmp", "1e-2"]])
    def test_pcm_reads_the_consistency_tolerance(self, write, capsys, cmp):
        # The worst triad, {1, 2, 3}, is 1 + 1e-5: a PCM at --tol-cons 1e-3,
        # whether --tol-cmp lies below that product or above it.
        path = write("near.csv", "1,100001/100000,1,?\n100000/100001,1,1,1\n1,1,1,1\n?,1,1,1\n")
        code, doc = run_json(["complete", path, "--tol-cons", "1e-3", *cmp], capsys)
        assert code == 0 and doc["classification"]["pcm"] is True
        assert doc["completion"]["engine"] == "consistent-chordal"


class TestReduce:
    def test_perturbed_four_by_four(self, write, capsys, rng):
        from triadcomplete.fileio import format_matrix

        bad, _, _ = cases.perturbed_consistent(rng, 4)
        path = write("bad.csv", format_matrix(bad))
        code, doc = run_json(["reduce", path, "--target-mt", "1.000001"], capsys)
        assert code == 0
        red = doc["reduction"]
        assert len(red["steps"]) == 1
        assert red["stop_reason"] == "target_reached"
        assert red["mt_final"] == pytest.approx(1.0, rel=1e-9)

    def test_consistent_input_zero_steps(self, write, capsys):
        path = write("ok.csv", "1,2,4\n1/2,1,2\n1/4,1/2,1\n")
        code, doc = run_json(["reduce", path, "--target-mt", "1.000001"], capsys)
        assert code == 0
        assert doc["reduction"]["steps"] == []

    def test_zero_step_budget(self, write, capsys):
        path = write("block.csv", BLOCK_TEXT)
        code, doc = run_json(["reduce", path, "--max-steps", "0"], capsys)
        assert code == 1
        assert doc["reduction"]["stop_reason"] == "max_steps"

    def test_alternate_edge_rule(self, write, capsys):
        from triadcomplete.fileio import format_matrix

        path = write("ntilde.csv", format_matrix(cases.five_completed()))
        code, doc = run_json(["reduce", path, "--edge", "paper", "--max-steps", "1"], capsys)
        assert doc["reduction"]["steps"][0]["edge"] == [1, 3]

    def test_partial_matrix_rejected(self, write, capsys):
        path = write("five.csv", FIVE_TEXT)
        assert main(["reduce", path]) == 2

    def test_loose_comparison_tolerance_reaches_the_target(self, write, capsys):
        # The one step reaches MT = 1; the decrease test must accept it at any --tol-cmp.
        path = write("t.csv", "1,7/5,1\n5/7,1,1\n1,1,1\n")
        assert main(["reduce", path, "--tol-cmp", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "stop reason: target_reached" in out and "MT = 1 (was 1.4)" in out


class TestUsage:
    def test_unknown_flag_exits_two(self, write):
        path = write("block.csv", BLOCK_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["measure", path, "--frobnicate"])
        assert exc.value.code == 2

    def test_tolerance_flags_parsed(self, write, capsys):
        # a sloppy reciprocal pair passes only with a loose tolerance
        path = write("loose.csv", "1,2\n0.50000001,1\n")
        assert main(["check", path]) == 2
        capsys.readouterr()
        assert main(["check", path, "--tol-rec", "1e-6"]) == 0
        ok = write("ok.csv", "1,2,4\n1/2,1,2\n1/4,1/2,1\n")
        for flag in ("--tol-rec", "--tol-cons", "--tol-cmp"):
            for value in ("nan", "inf", "0"):
                assert main(["check", ok, flag, value]) == 2, (flag, value)
                err = capsys.readouterr().err
                assert "tolerances" in err and flag in err, (flag, value)

    @pytest.mark.parametrize("command, text", [
        ("check", FIVE_TEXT), ("complete", FIVE_TEXT), ("reduce", BLOCK_TEXT),
    ])
    def test_comparison_tolerance_below_the_floor_exits_two(self, write, capsys, command, text):
        # Below the floor the fill step's checks would compare bits, not values.
        floor = matrices.CMP_FLOOR
        assert floor == 8 * sys.float_info.epsilon
        path = write("m.csv", text)
        for value in ("1e-16", repr(floor / 2)):
            assert main([command, path, "--tol-cmp", value]) == 2
            err = capsys.readouterr().err
            assert "--tol-cmp" in err and "tolerances" in err and "Traceback" not in err
        assert main([command, path, "--tol-cmp", repr(floor)]) in (0, 1)
        capsys.readouterr()

    def test_comparison_tolerance_at_the_floor_passes_every_check(self, write, capsys, rng):
        # At 1e-16 some of these fills died on the measure-increase check.
        tol = ["--tol-cmp", repr(matrices.CMP_FLOOR)]
        partial = [str(p) for p in sorted(DATA.glob("*.csv"))]
        for _ in range(30):
            g = cases.disjoint_union(rng, int(rng.integers(4, 17)), ("clique-attached",))
            m = cases.prm_on_graph(rng, g)
            partial.append(write("chordal.csv", format_matrix(m)))
            for selection in completion.SELECTIONS:
                for path in partial:
                    assert main(["complete", path, "--mode", "mt-preserving",
                                 "--selection", selection, *tol]) in (0, 1, 2)
            partial.pop()
            capsys.readouterr()
        full = [str(p) for p in sorted(DATA.glob("*.csv"))]
        full.append(write("full.csv", format_matrix(cases.perturbed_consistent(rng, 12)[0])))
        for edge in reduction.EDGE_RULES:
            for path in full:
                assert main(["reduce", path, "--edge", edge, *tol]) in (0, 1, 2)
            capsys.readouterr()

    def test_bad_reduce_target_exits_two(self, write, capsys):
        path = write("block.csv", BLOCK_TEXT)
        for value in ("nan", "0.5"):
            assert main(["reduce", path, "--target-mt", value]) == 2
            err = capsys.readouterr().err
            assert "--target-mt" in err and "target_mt" in err and "Traceback" not in err
        assert main(["reduce", path, "--max-steps", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--max-steps" in err and "max_steps" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, text, located",
        [
            (["check"], HUGE_TEXT, "triad (1, 2, 3)"),
            (["measure"], HUGE_TEXT, "triad (1, 2, 3)"),
            (["reduce"], HUGE_TEXT, "triad (1, 2, 3)"),
            (["complete"], HUGE_PARTIAL_TEXT, "entry (1, 3)"),
            (["complete", "--mode", "mt-preserving"], HUGE_PARTIAL_TEXT, "entry (1, 3)"),
            (["check"], HUGE_PARTIAL_TEXT, "entry (1, 3)"),
            (["check"], HUGE_TREE_TEXT, "entry (1, 2)"),
            (["complete"], HUGE_TREE_TEXT, "entry (1, 2)"),
            (
                ["complete", "--mode", "mt-preserving", "--selection", "hi"],
                HUGE_CLIQUE_TEXT,
                "triad (2, 3, 4)",
            ),
            (["check"], f"1,1{'0' * 400}/1\n1,1\n", "line 1, col 2"),
            (["check"], "1,1e200\n1e200,1\n", "line 1, col 2"),
        ],
        ids=[
            "check",
            "measure",
            "reduce",
            "complete-auto",
            "complete-mt-preserving",
            "check-tree-path",
            "check-tree",
            "complete-tree",
            "complete-hi-clique",
            "check-huge-ratio",
            "check-reciprocal-product",
        ],
    )
    def test_overflow_exits_two(self, write, capsys, argv, text, located):
        path = write("huge.csv", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([argv[0], path, *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert located in err and "Traceback" not in err
        assert [str(w.message) for w in caught] == []

    def test_complete_with_overflowing_minimax_product(self, write, capsys):
        # The one triad product through (1, 3) is 1e155; its square overflows.
        path = write("path.csv", "1,1e155,?\n1e-155,1,1\n?,1,1\n")
        code, doc = run_json(["complete", path], capsys)
        assert code == 0
        assert doc["matrix"][0] == ["1", "1e155", "1.0000000000000001e+155"]

    def test_reduce_with_overflowing_minimax_product(self, write, capsys):
        text = "1,1e155,1e155,1e155\n1e-155,1,2,1\n1e-155,1/2,1,1\n1e-155,1,1,1\n"
        code, doc = run_json(["reduce", write("m.csv", text)], capsys)
        assert code == 0
        red = doc["reduction"]
        assert [(s["edge"], s["old_value"], s["new_value"]) for s in red["steps"]] == [
            ([2, 3], 2.0, 1.0)
        ]
        assert (red["mt_initial"], red["mt_final"]) == (2.0, 1.0)

    def test_complete_with_subnormal_minimax_product(self, write, capsys):
        # The one triad product through (1, 3) is 1e-160; its square is subnormal.
        path = write("path.csv", "1,1e-80,?\n1e80,1,1e-80\n?,1e80,1\n")
        code, doc = run_json(["complete", path], capsys)
        assert code == 0
        assert doc["completion"]["engine"] == "consistent-chordal"
        assert doc["completion"]["mt_after"] == 1.0
        assert doc["matrix"][0] == ["1", "1e-80", "1e-160"]

    def test_reduce_with_subnormal_minimax_product(self, write, capsys):
        text = "1,1e-80,3e-160\n1e80,1,1e-80\n3.3333333333333333e159,1e80,1\n"
        code, doc = run_json(["reduce", write("m.csv", text), "--edge", "paper"], capsys)
        assert code == 0
        red = doc["reduction"]
        assert [(s["edge"], s["old_value"], s["new_value"]) for s in red["steps"]] == [
            ([1, 3], 3e-160, 1e-160)
        ]
        assert (red["stop_reason"], red["mt_final"]) == ("target_reached", 1.0)

    def test_midpoint_near_the_top_of_the_range(self, write, capsys):
        path = write("path.csv", "1,1e154,?\n1e-154,1,1e154\n?,1e-154,1\n")
        argv = ["complete", path, "--mode", "mt-preserving", "--selection", "midpoint"]
        code, doc = run_json(argv, capsys)
        assert code == 0
        (step,) = doc["completion"]["steps"]
        assert step["edge"] == [1, 3] and step["value"] == 1e308
        assert step["interval"]["lo"] == step["interval"]["hi"] == 1e308

    def test_unbounded_interval_end(self, write, capsys):
        # The triads through (1, 5) allow it up to 1e10 * 1e300, which is inf.
        text = "1,1e150,?,?,?\n1e-150,1,1e150,?,?\n?,1e-150,1,1e10,1\n?,?,1e-10,1,1\n?,?,1,1,1\n"
        path = write("m.csv", text)
        assert main(["complete", path]) == 0
        assert "filled (1,5) = 1e+300  interval [1e+290, inf]\n" in capsys.readouterr().out
        code, doc = run_json(["complete", path], capsys)
        steps = {tuple(s["edge"]): s for s in doc["completion"]["steps"]}
        assert steps[1, 5]["interval"]["hi"] is None
        assert not steps[1, 5]["interval"]["unconstrained"]

    @pytest.mark.parametrize(
        "text, selection, code, located",
        [
            (OVERFLOW_A_TEXT, "lo", 2, "entry (2, 3): product through 4 is out of range"),
            (OVERFLOW_A_TEXT, "hi", 0, ""),
            (OVERFLOW_A_TEXT, "midpoint", 0, ""),
            (OVERFLOW_B_TEXT, "lo", 2, "triad (1, 2, 3): 3-cycle product overflows"),
            (OVERFLOW_B_TEXT, "hi", 2, "entry (1, 3): product through 4 is out of range"),
            (OVERFLOW_B_TEXT, "midpoint", 2, "entry (1, 3): product through 4 is out of range"),
        ],
    )
    def test_overflowing_product_through_an_unspecified_entry(
        self, write, capsys, text, selection, code, located
    ):
        # An earlier fill at an interval end makes a product through the
        # next unspecified entry overflow or underflow.
        path = write("m.csv", text)
        assert main(["complete", path, "--mode", "mt-preserving", "--selection", selection]) == code
        err = capsys.readouterr().err
        assert located in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "selection, located",
        [
            ("minimax", "entry (2, 5): product through 1 is out of range"),
            ("midpoint", "entry (2, 5): product through 1 is out of range"),
            ("lo", "triad (1, 4, 5): 3-cycle product overflows"),
            ("hi", "entry (2, 5): product through 1 is out of range"),
        ],
        ids=["minimax", "midpoint", "lo", "hi"],
    )
    def test_subnormal_product_through_an_unspecified_entry(
        self, write, capsys, selection, located
    ):
        # The fill step refuses a product that is not a normal double, as it
        # refuses 0 and inf; 'hi' once died here on the empty-interval check.
        path = write("m.csv", cases.SUBNORMAL_PRODUCT_TEXT)
        assert main(["complete", path, "--selection", selection]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {located}\n"

    @pytest.mark.parametrize(
        "text, flags, value, engines",
        [
            (SUBNORMAL_FILL_TEXT, ["--mode", "mt-preserving", "--selection", "lo"], 1e-310,
             [functools.partial(completion.complete_mt_preserving, selection="lo")]),
            (TWO_BLOCK_TEXT, ["--join-k", "1e-320"], 1e-320,
             [functools.partial(completion.complete_mt_preserving, join_scale=1e-320),
              functools.partial(completion.complete_consistent_pc_plus, join_scale=1e-320)]),
        ],
        ids=["fill-step", "join"],
    )
    def test_filled_value_whose_reciprocal_overflows(self, write, capsys, text, flags, value,
                                                     engines):
        # 1 / value is inf: the fill refuses the value, as validate refuses such a cell.
        located = f"entry (1, 3): filled value {value!r} is out of range"
        assert main(["complete", write("m.csv", text), *flags]) == 2
        assert capsys.readouterr().err == f"error: {located}\n"
        for engine in engines:
            with pytest.raises(MatrixError, match=re.escape(located)):
                engine(parse_matrix(text)[0])

    def test_wide_magnitudes_exit_zero_one_or_two(self, write, capsys):
        # Chordal patterns with entries 10^U(-150, 150): every call returns.
        rng = np.random.default_rng(1500)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            g = cases.disjoint_union(rng, n, ("clique-attached",) * int(rng.integers(1, 3)))
            raw = np.full((n, n), np.nan)
            np.fill_diagonal(raw, 1.0)
            for i, j in g.edges:
                raw[i, j] = 10.0 ** rng.uniform(-150, 150)
                raw[j, i] = 1.0 / raw[i, j]
            path = write("wide.csv", format_matrix(validate(raw)))
            for selection in completion.SELECTIONS:
                assert main(["complete", path, "--mode", "mt-preserving",
                             "--selection", selection]) in (0, 1, 2)
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (
                ["check"],
                "1,1e200\n1e200,1\n",
                "line 1, col 2: entries (1, 2) and (2, 1) are not mutual reciprocals;"
                " their product is inf",
            ),
            (
                ["check"],
                "1,-1\n-1,1\n",
                "line 1, col 2: entry (1, 2) must be positive and finite, got -1.0",
            ),
            (["check"], "2,1\n1,1\n", "line 1: diagonal entry (1, 1) must equal 1, got 2.0"),
            (
                ["complete"],
                CYCLE_TEXT,
                "component {1,2,3,4} is not chordal; chordless cycle 1-2-3-4",
            ),
        ],
        ids=["reciprocal-product", "negative-cell", "diagonal", "not-chordal"],
    )
    def test_messages_one_based_with_plain_floats(self, write, capsys, argv, text, message):
        code = main([argv[0], write("m.csv", text)])
        assert code == (1 if argv == ["complete"] else 2)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_module_entry_point(self, write):
        proc = run_module(["measure", write("block.csv", BLOCK_TEXT)])
        assert proc.returncode == 0
        assert "MT = 2" in proc.stdout

    def test_calls_in_one_process_match_first_calls(self, write, capsys, tmp_path):
        # One parser serves every call: nothing of one call's arguments,
        # a rejected flag or an --out path, may reach the next.
        partial, full = write("p.csv", CYCLE_FIXED_TEXT), write("f.csv", BLOCK_TEXT)
        out = tmp_path / "x.csv"
        sequence = [["measure", full, "--frobnicate"], ["complete", partial, "--out", str(out)],
                    ["reduce", full]]
        first = [(proc.returncode, proc.stdout) for proc in map(run_module, sequence)]
        out.unlink()
        with pytest.raises(SystemExit) as exc:
            main(sequence[0])
        got = [(exc.value.code, capsys.readouterr().out)]
        got.append((main(sequence[1]), capsys.readouterr().out))
        out.unlink()
        got.append((main(sequence[2]), capsys.readouterr().out))
        assert got == first
        assert not out.exists()

    @pytest.mark.parametrize("text", [CYCLE_FIXED_TEXT, "# a comment first\n1,?\n?,1\n"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, text):
        # Spreadsheets save "CSV UTF-8" with a BOM before the first cell or comment.
        runs = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-out.csv"
            path.write_text(prefix + text, encoding="utf-8")
            for argv in (["check"], ["complete", "--trace", "--out", str(out)]):
                code = main([argv[0], str(path), *argv[1:]])
                captured = capsys.readouterr()
                runs.append((code, captured.out.replace(str(path), "<input>"), captured.err))
            runs.append(out.read_bytes())
        assert runs[:3] == runs[3:]
        assert runs[0][2] == "" and not runs[5].startswith(b"\xef\xbb\xbf")


def _sanitised(value):
    """The report as ``json.dumps`` is given it: arrays become lists, non-finite floats None,
    and each step record the dict of its fields, the edge one-based and the interval with
    ``unconstrained``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sanitised(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_sanitised(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (CompletionStep, ReductionStep)):
        interval = {**vars(value.interval), "unconstrained": value.interval.unconstrained}
        doc = {**vars(value), "edge": [i + 1 for i in value.edge], "interval": interval}
        return _sanitised(doc)
    if isinstance(value, tuple):  # of step records
        return [_sanitised(v) for v in value]
    return value


class _Text(str):
    """A ``str`` subclass: ``json.dumps`` writes it as a string, and so must ``_json``."""


_texts = st.text() | st.sampled_from(
    ["", "é", '"q"', "back\\slash", "\x00\x1f\n\t", "\x7f", "\u2028", "\U0001f600", "100%",
     "%d %r %%"]
)
_texts |= _texts.map(_Text)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([0, 1, 0.0, -0.0, 1e-7, 1e22, math.inf, -math.inf, math.nan])
    | _texts
)
_ints = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
# Int (k, m) arrays, as the unspecified pairs are (k, 2).
_pairs = hnp.arrays(np.int64, st.tuples(st.integers(0, 5), st.integers(0, 3)), elements=_ints)


# Step floats from subnormals to 1e308, with both zeros, inf and nan.
_step_floats = st.floats(0.0, 1e308, exclude_min=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.inf, math.nan]
)


@st.composite
def _step_tables(draw):
    """0 to 40 records of one step type, their floats often one value repeated across fields."""
    pool = draw(st.lists(_step_floats, min_size=1, max_size=3))
    x = st.sampled_from(pool) | _step_floats
    edge = st.tuples(st.integers(0, 300), st.integers(0, 300))
    interval = st.builds(FeasibleInterval, x, x, x, x)
    record = draw(st.sampled_from([
        st.builds(CompletionStep, edge, interval, x, x, x),
        st.builds(ReductionStep, edge, x, x, interval, x, x, st.booleans()),
    ]))
    return tuple(draw(st.lists(record, max_size=40)))


_docs = st.recursive(
    # and rows of cell text, also mixed with other scalars
    _scalars | _pairs | st.lists(_texts) | st.lists(_scalars) | _step_tables(),
    lambda kids: st.lists(kids) | st.dictionaries(_texts, kids),
    max_leaves=40,
)


def _pc_plus_text(seed: int, n: int, parts: int) -> str:
    """Consistent data on a sparse, almost surely non-chordal pattern with ``parts`` components."""
    rng = np.random.default_rng(seed)
    g = cases.random_sparse_graph(rng, n, parts)
    full = cases.consistent_matrix(cases.random_weights(rng, n))
    return format_matrix(cases.mask_to_graph(full, g))


def _chordal_pcm_text(kind: str, n: int) -> str:
    """Random data on a seeded tree or star: no triads, so a chordal PCM."""
    rng = np.random.default_rng(n)
    return format_matrix(cases.prm_on_graph(rng, cases.graph_of_kind(rng, kind, n)))


def _pieces(value) -> list[str]:
    """What the trace writer passes to ``write`` for ``value``, in order."""
    pieces = []
    _json(value, pieces.append)
    return pieces


def _dumps(value) -> str:
    return "".join(_pieces(value))


def _assert_round_trips(out: str) -> None:
    """``out`` is ``json.dumps(..., indent=2)`` of what it parses to, and a line."""
    expected = json.dumps(json.loads(out), indent=2) + "\n"
    if out != expected:  # a plain assert would diff two megabyte strings
        at = len(os.path.commonprefix([out, expected]))
        got, want = out[at - 40 : at + 40], expected[at - 40 : at + 40]
        pytest.fail(f"differs at byte {at}: {got!r} vs {want!r}")


class TestTraceEmitter:
    @settings(max_examples=3 * settings.default.max_examples)  # 120 at the suite profile
    @given(_docs)
    def test_equals_json_dumps_indent_two(self, doc):
        assert _dumps(doc) == json.dumps(_sanitised(doc), indent=2)

    def test_empty_containers_and_literals(self):
        doc = {"a": [], "b": {}, "d": [True, False, None, -0.0, math.nan]}
        assert _dumps(doc) == json.dumps(_sanitised(doc), indent=2)

    def test_pair_arrays(self):
        pairs = np.array([[1, 3], [2, 4]])
        doc = {
            "pairs": pairs,
            "none": np.zeros((0, 2), dtype=np.int64),
            "%d": pairs[1:],
            "no columns": np.zeros((2, 0), dtype=np.int64),
            "note": "100% %r %s",
            "tokens": ["1", "7/3", "?"],
        }
        text = _dumps(doc)
        assert text == json.dumps(_sanitised(doc), indent=2)
        assert json.loads(text)["pairs"] == [[1, 3], [2, 4]]

    @pytest.mark.parametrize("char", ['"', "\\", "\x1f", "\x7f", "é", "\u2028"],
                             ids=["quote", "backslash", "unit-separator", "delete", "e-acute", "line-separator"])
    def test_each_escape_class_in_a_row(self, char):
        # One character escaping changes puts the whole row through per-item escaping.
        for row in (["1", f"a{char}b", "?"], [char], ["7/3", _Text(char)]):
            assert _dumps({"matrix": [row]}) == json.dumps({"matrix": [row]}, indent=2)

    def test_str_subclasses_are_strings(self):
        doc = {_Text("key"): [_Text("1/3"), "?"], "one": _Text("x"), "mixed": [_Text("a"), 1, None]}
        assert _dumps(doc) == json.dumps(doc, indent=2)

    def test_signed_zeros_in_one_step_table(self):
        # -0.0 == 0.0 and both hash alike, so a memo keyed by value alone would
        # write whichever zero came first for both.
        interval = FeasibleInterval(0.0, -0.0, 0.0, 1.5)
        doc = {"steps": (
            ReductionStep((0, 1), 0.0, -0.0, interval, 1.5, -0.0, False),
            ReductionStep((1, 2), -0.0, 0.0, FeasibleInterval(-0.0, 0.0, -0.0, 1.5), 0.0, 1.5, True),
        )}
        text = _dumps(doc)
        assert text == json.dumps(_sanitised(doc), indent=2)
        assert text.count(" -0.0") == text.count(" 0.0") == 6

    _STEP = CompletionStep((0, 1), FeasibleInterval(0.5, 2.0, 1.0, 1.0), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "value",
        [(1, 2), np.float64(0.5), np.zeros((2, 2)), np.arange(3), np.ones((1, 2), dtype=bool), {1},
         (_STEP, CompletionStep((0, 2), _STEP.interval, np.float64(1.0), 1.0, 1.0))],
        ids=["tuple", "numpy-float", "float-array", "1-d-array", "bool-array", "set",
             "step-numpy-float"],
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dumps({"key": [value]})

    _BORDERS = {"none": 0, "one": 1, "chunk-less-one": CHUNK_ROWS - 1, "chunk": CHUNK_ROWS,
                "chunk-plus-one": CHUNK_ROWS + 1, "three-chunks-plus-one": 3 * CHUNK_ROWS + 1}

    @pytest.mark.parametrize("count", _BORDERS.values(), ids=_BORDERS.keys())
    def test_tables_at_chunk_borders(self, count):
        # Both zeros, nan and both infinities recur on each side of every chunk border,
        # so the one memo per table serves every chunk.
        floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1.5, 0.0, -0.0, math.inf]

        def x(row, field):
            return floats[(row + field) % len(floats)]

        def interval(row):
            return FeasibleInterval(*(x(row, field) for field in range(4)))

        doc = {
            "unspecified_pairs": np.arange(1, 2 * count + 1).reshape(count, 2),
            "completion": tuple(CompletionStep((r, r + 1), interval(r), x(r, 4), x(r, 5), x(r, 6))
                                for r in range(count)),
            "reduction": tuple(ReductionStep((r + 1, r), x(r, 7), x(r, 8), interval(r + 2),
                                             x(r, 9), x(r, 10), r % 3 == 0) for r in range(count)),
        }
        pieces = _pieces(doc)
        assert "".join(pieces) == json.dumps(_sanitised(doc), indent=2)
        # A table row has one "[" (its edge, or the pair itself), and a table's first piece
        # opens it too: no piece holds more than a chunk.
        assert max(piece.count("[") for piece in pieces) <= CHUNK_ROWS + 1

    def test_writer_holds_little_more_than_its_output(self, write):
        # A consistent n=128 completion: 0.77 MB of trace, most of it 7,594 unspecified pairs.
        # The StringIO holds the output, over-allocated by at most a quarter (192 KB); the
        # writer adds a chunk and the row templates, about 53 KB over the output in all.  The
        # pairs as one piece read 0.40 MB over, and the whole document formed before it is
        # written 1.5 MB over.
        path = write("m.csv", _pc_plus_text(1, 128, 1))
        args = cli.build_parser().parse_args(["complete", path, "--trace"])
        tol = matrices.Tolerances(rec=args.tol_rec, cons=args.tol_cons, cmp=args.tol_cmp)
        sections, _ = args.func(*fileio.load_matrix(path, tol), tol, args)
        report, out = {"command": "complete", "input": path, **sections}, io.StringIO()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            _json(report, out.write)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = len(out.getvalue())
        assert size > 700_000 and out.getvalue().isascii()
        assert peak - live <= size + 2**18

    def test_a_pipe_closed_mid_report_exits_two(self, write, capsys, monkeypatch):
        # The reader of `complete --trace | head -c 100` goes away while the report is written.
        class ClosedPipe:
            pieces = 0

            def write(self, text):
                self.pieces += 1
                if self.pieces > 5:
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        pipe = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["complete", write("m.csv", _pc_plus_text(1, 64, 1)), "--trace"]) == 2
        assert pipe.pieces == 6
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize(
        "engine, parts, text",
        [
            pytest.param("consistent-pc-plus", 1, _pc_plus_text(1, 64, 1), id="1-64-1"),
            pytest.param("consistent-pc-plus", 2, _pc_plus_text(2, 128, 2), id="2-128-2"),
            pytest.param("consistent-chordal", 1, _chordal_pcm_text("tree", 64), id="tree-64"),
            pytest.param("consistent-chordal", 1, _chordal_pcm_text("star", 128), id="star-128"),
        ],
    )
    def test_consistent_trace_at_scale(self, write, capsys, tmp_path, engine, parts, text):
        # The filled entries are listed once, as the unspecified pairs: their
        # values are those cells of the matrix rows, and no steps repeat them.
        path, out = write("m.csv", text), tmp_path / "out.csv"
        assert main(["complete", path, "--trace", "--out", str(out)]) == 0
        trace = capsys.readouterr().out
        doc = json.loads(trace)
        assert doc["completion"]["engine"] == engine and doc["completion"]["steps"] == []
        assert len(doc["classification"]["components"]) == parts
        pairs = doc["classification"]["unspecified_pairs"]
        cells = [doc["matrix"][i - 1][j - 1] for i, j in pairs]
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert pairs and cells == [rows[i - 1][j - 1] for i, j in pairs]
        assert main(["complete", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        filled = [line for line in lines if line.startswith("filled")]
        assert filled == [f"filled ({i},{j}) = {float(c):.12g}" for (i, j), c in zip(pairs, cells)]
        _assert_round_trips(trace)

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize(
        "argv, table",
        [
            (["check"], ("classification", "unspecified_pairs")),
            (["measure"], ("measures", "max_triad")),
            (["reduce"], ("reduction", "steps")),
            *((["complete", "--mode", "mt-preserving", "--selection", s], ("completion", "steps"))
              for s in completion.SELECTIONS),
        ],
        ids=["check", "measure", "reduce", *completion.SELECTIONS],
    )
    def test_every_trace_round_trips_at_scale(self, write, capsys, n, argv, table):
        rng = np.random.default_rng(n)
        if argv[0] in ("measure", "reduce"):
            m = cases.perturbed_consistent(rng, n)[0]
        else:  # two chordal blocks: unspecified pairs, fill steps and a join
            m = cases.prm_on_graph(rng, cases.disjoint_union(rng, n, ("clique-attached",) * 2))
        main([argv[0], write("m.csv", format_matrix(m)), "--trace", *argv[1:]])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert functools.reduce(dict.__getitem__, table, doc)
        if argv[0] == "measure":  # the input is not echoed
            assert "matrix" not in doc
        _assert_round_trips(out)


# The per-component chordality test that ``SpecGraph.chordless_cycles`` and
# ``is_chordal`` share.
CHORDALITY_TEST = "_chordless_cycle_or_none"


class TestWorkDoneOnce:
    def counted(self, monkeypatch, module, name, namespaces):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for namespace in namespaces:
            monkeypatch.setattr(namespace, name, wrapper)
        return calls

    def test_one_parser_per_process(self, write, capsys, monkeypatch, tmp_path):
        partial, full = write("p.csv", CYCLE_FIXED_TEXT), write("f.csv", BLOCK_TEXT)
        main(["check", partial])  # may build the parser
        parser = argparse.ArgumentParser
        built = self.counted(monkeypatch, parser, "__init__", (parser,))
        main(["check", partial])
        main(["measure", full, "--trace"])
        main(["complete", partial, "--trace", "--out", str(tmp_path / "out.csv")])
        main(["reduce", full])
        assert len(built) == 0

    @pytest.mark.parametrize("argv", [["complete"], ["reduce"]])
    def test_one_format_per_out_command(self, write, capsys, monkeypatch, tmp_path, argv):
        path = write("m.csv", CYCLE_FIXED_TEXT if argv == ["complete"] else BLOCK_TEXT)
        calls = self.counted(monkeypatch, fileio, "format_rows", (fileio, cli))
        out = tmp_path / "out.csv"
        main([argv[0], path, "--trace", "--out", str(out)])
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert out.read_text() == "".join(",".join(row) + "\n" for row in doc["matrix"])

    @pytest.mark.parametrize(
        "engine", [completion.complete_mt_preserving, oracle.complete_consistent_chordal]
    )
    def test_is_chordal_once_per_component(self, monkeypatch, rng, engine):
        g = graphs.SpecGraph.from_matrix(cases.random_two_component_chordal_prm(rng))
        m = cases.mask_to_graph(cases.consistent_matrix(cases.random_weights(rng, g.n)), g)
        calls = self.counted(monkeypatch, graphs, CHORDALITY_TEST, self.holders(CHORDALITY_TEST))
        engine(m)
        assert len(calls) == len(graphs.connected_components(g)) == 2

    def test_no_matrix_built_per_fill_step(self, monkeypatch, rng):
        cls = matrices.PartialReciprocalMatrix
        builds = self.counted(monkeypatch, cls, "__post_init__", (cls,))
        counts = []
        for n in (16, 32):
            m = cases.prm_on_graph(rng, cases.star_graph(n))
            builds.clear()
            report = completion.complete_mt_preserving(m)
            assert len(report.steps) == (n - 1) * (n - 2) // 2
            counts.append(len(builds))
        assert counts[0] == counts[1]

    def test_tree_weights_once_per_component(self, write, capsys, monkeypatch):
        # Two components: the 4-cycle with consistent data, and a lone pair.
        text = "1,2,?,10/3,?,?\n1/2,1,1/3,?,?,?\n?,3,1,5,?,?\n3/10,?,1/5,1,?,?\n" \
            "?,?,?,?,1,7\n?,?,?,?,1/7,1\n"
        calls = self.counted(monkeypatch, measures, "tree_weights", self.holders("tree_weights"))
        assert main(["complete", write("two.csv", text), "--trace"]) == 0
        assert json.loads(capsys.readouterr().out)["completion"]["engine"] == "consistent-pc-plus"
        assert len(calls) == 2

    def holders(self, name):
        return [mod for mod in (graphs, measures, completion, oracle, cli) if hasattr(mod, name)]

    @pytest.mark.parametrize("name", ["two_blocks_8x8.csv", "partial_5x5.csv"])
    def test_two_matrices_per_complete(self, capsys, monkeypatch, name):
        prm = matrices.PartialReciprocalMatrix
        builds = self.counted(monkeypatch, prm, "__post_init__", (prm,))
        assert main(["complete", str(DATA / name), "--trace"]) == 0
        assert json.loads(capsys.readouterr().out)["completion"]["steps"]
        assert len(builds) == 2  # the input and the result

    @pytest.mark.parametrize("command", ["check", "complete"])
    def test_one_graph_and_one_component_search_per_command(self, capsys, monkeypatch, command):
        spec = graphs.SpecGraph
        built = self.counted(monkeypatch, spec, "__init__", (spec,))  # from_matrix and the rest
        searched = self.counted(
            monkeypatch, graphs, "connected_components", self.holders("connected_components")
        )
        main([command, str(DATA / "two_blocks_8x8.csv"), "--trace"])
        assert len(json.loads(capsys.readouterr().out)["classification"]["components"]) == 2
        assert len(built) == len(searched) == 1

    def test_is_chordal_once_per_component_per_complete(self, capsys, monkeypatch):
        calls = self.counted(monkeypatch, graphs, CHORDALITY_TEST, self.holders(CHORDALITY_TEST))
        assert main(["complete", str(DATA / "two_blocks_8x8.csv"), "--trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == len(doc["classification"]["components"]) == 2

    @pytest.mark.parametrize("text", [CYCLE_FIXED_TEXT, "1,2,?,?\n1/2,1,?,?\n?,?,1,5\n?,?,1/5,1\n"])
    def test_missing_pairs_once_per_consistent_complete(self, write, capsys, monkeypatch, text):
        prm = matrices.PartialReciprocalMatrix
        calls = self.counted(monkeypatch, prm, "missing_pairs", (prm,))
        assert main(["complete", write("m.csv", text), "--trace"]) == 0
        assert json.loads(capsys.readouterr().out)["completion"]["mode"] == "consistent"
        assert len(calls) == 1

    def test_reduce_step_builds_a_fixed_number_of_matrices(self, monkeypatch, rng):
        prm = matrices.PartialReciprocalMatrix
        builds = self.counted(monkeypatch, prm, "__post_init__", (prm,))
        counts = []
        for n in (16, 32):
            m = cases.perturbed_consistent(rng, n)[0]
            builds.clear()
            reduction.reduce_step(m)
            counts.append(len(builds))
        # The result only: each candidate clears its pair in a copy of the entries.
        assert counts == [1, 1]

    def test_reduce_builds_triad_tables_once(self, monkeypatch, rng):
        # Every full scan builds triad tables, so this counts triad_scan calls too.
        tables = measures.TriadTables
        builds = self.counted(monkeypatch, tables, "__init__", (tables,))
        m = cases.random_prm(rng, 12, p=1.0).to_complete()
        reduction.reduce_step(m)
        assert len(builds) == 1  # candidates' contexts are updates, not scans
        builds.clear()
        trace = reduction.reduce(m, max_steps=4)
        assert len(trace.steps) == 4
        assert len(builds) == 1  # applied steps update the input's tables

    @pytest.mark.parametrize(
        "text, engine",
        [
            (CYCLE_FIXED_TEXT, "consistent-pc-plus"),
            ("1,2,?,?\n1/2,1,3,?\n?,1/3,1,5\n?,?,1/5,1\n", "consistent-chordal"),
            ((DATA / "partial_5x5.csv").read_text(), "mt-preserving/minimax"),
            ((DATA / "two_blocks_8x8.csv").read_text(), "mt-preserving/minimax"),
        ],
        ids=["pc-plus", "chordal-pcm", "mt-preserving", "mt-preserving-joined"],
    )
    def test_complete_makes_one_mt_pass_per_matrix(
        self, write, capsys, monkeypatch, tmp_path, text, engine
    ):
        # No triad tables: the classification's MT pass is the engine's first
        # context and the report's mt_before, and the result gets one pass.
        specified = sum(token != "?" for row in parse_matrix(text)[1] for token in row)
        tables = measures.TriadTables
        builds = self.counted(monkeypatch, tables, "__init__", (tables,))
        passes = self.counted(monkeypatch, measures, "mt_pass", (measures,))
        parsed = self.counted(monkeypatch, fileio, "_token_value", (fileio,))
        path = write("m.csv", text)
        assert main(["complete", path, "--trace", "--out", str(tmp_path / "out.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completion"]["engine"] == engine
        assert builds == []
        assert len(passes) == 2 and passes[0][0] is not passes[1][0]
        assert doc["completion"]["mt_before"] == measures.triad_scan(passes[0][0]).mt
        assert doc["completion"]["mt_after"] == measures.triad_scan(passes[1][0]).mt
        # Each specified cell is parsed once, when the file is read, and never
        # again when the result is formatted.
        assert len(parsed) == specified

    def test_pc_plus_test_once_per_consistent_complete(self, capsys, monkeypatch):
        # The classification's PC+ verdict is the engine's precondition, so
        # the one component's weights are compared with its entries once.
        calls = self.counted(monkeypatch, measures, "tree_violation", (measures,))
        assert main(["complete", str(DATA / "cycle_4x4_repaired.csv"), "--trace"]) == 0
        assert json.loads(capsys.readouterr().out)["completion"]["engine"] == "consistent-pc-plus"
        assert len(calls) == 1

    def test_pc_plus_reads_components_without_a_chordality_test(self, monkeypatch):
        calls = self.counted(monkeypatch, graphs, CHORDALITY_TEST, self.holders(CHORDALITY_TEST))
        m, _ = parse_matrix(CYCLE_FIXED_TEXT)
        assert measures.is_pc_plus(m) == (True, None)
        completion.complete_consistent_pc_plus(m)
        assert calls == []
