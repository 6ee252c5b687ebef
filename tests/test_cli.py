import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cases
from triadcomplete.cli import main
from triadcomplete.fileio import parse_matrix

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
        assert code == 0
        filled = {tuple(s["edge"]): s["value"] for s in doc["completion"]["steps"]}
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
            assert "--join-cols" in err or not flag.startswith("--join-cols")
            assert not out.exists()

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
                assert "tolerances" in capsys.readouterr().err

    def test_bad_reduce_target_exits_two(self, write, capsys):
        path = write("block.csv", BLOCK_TEXT)
        for value in ("nan", "0.5"):
            assert main(["reduce", path, "--target-mt", value]) == 2
            assert "target_mt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text, located",
        [
            (["check"], HUGE_TEXT, "triad (1, 2, 3)"),
            (["measure"], HUGE_TEXT, "triad (1, 2, 3)"),
            (["reduce"], HUGE_TEXT, "triad (1, 2, 3)"),
            (["complete"], HUGE_PARTIAL_TEXT, "entry (1, 3)"),
            (["complete", "--mode", "mt-preserving"], HUGE_PARTIAL_TEXT, "entry (1, 3)"),
        ],
        ids=["check", "measure", "reduce", "complete-auto", "complete-mt-preserving"],
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

    def test_module_entry_point(self, write):
        path = write("block.csv", BLOCK_TEXT)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "triadcomplete", "measure", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "MT = 2" in proc.stdout
