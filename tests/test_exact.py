"""Exact certificates of the paper's guarantees on the CLI's ``--out`` files.

Each file goes through ``complete --out`` (auto, and ``--mode mt-preserving``
with each selection) and ``reduce --out`` (each edge rule) at the default
tolerances.  :mod:`exact` then checks the written cells against the input's
in rational arithmetic, independently of the trace:

- every completion keeps each specified cell's token;
- after a consistent completion, every oriented triad product p of the
  output has |p - 1| <= 1e-9;
- after an MT-preserving completion, the output's exact MT is at most the
  input's times 1 + 1e-9;
- a reduce that changed any cell lowered the exact MT.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cases
import exact
from triadcomplete.cli import main
from triadcomplete.completion import SELECTIONS
from triadcomplete.fileio import format_matrix
from triadcomplete.reduction import EDGE_RULES

DATA = Path(__file__).resolve().parents[1] / "data"
TOL = Fraction(1, 10**9)  # the default --tol-cons and --tol-cmp
COMMANDS = [
    ["complete"],
    *(["complete", "--mode", "mt-preserving", "--selection", s] for s in SELECTIONS),
    *(["reduce", "--edge", rule] for rule in EDGE_RULES),
]


SEEDED = ("chordal-pcm", "pc-plus", "chordal", "perturbed")


def _seeded(kind: str, n: int = 32) -> str:
    rng = np.random.default_rng(n)
    if kind == "chordal-pcm":  # consistent data on a clique-attached pattern
        full = cases.consistent_matrix(cases.random_weights(rng, n))
        m = cases.mask_to_graph(full, cases.clique_attached_graph(rng, n))
    elif kind == "pc-plus":  # consistent data on a non-chordal pattern
        m = cases.random_nonchordal_pcplus(rng, n)[0]
    elif kind == "chordal":  # random data on a clique-attached pattern
        m = cases.prm_on_graph(rng, cases.clique_attached_graph(rng, n))
    else:  # a consistent complete matrix with one pair scaled by 9
        m = cases.perturbed_consistent(rng, n)[0]
    return format_matrix(m)


# file -> the certificates its --out files take; the seeded files have n = 32
CERTIFICATES = {
    "block_3x3.csv": {"reduce"},
    "cycle_4x4.csv": set(),
    "cycle_4x4_repaired.csv": {"consistent"},
    "partial_5x5.csv": {"mt-preserving"},
    "path_and_5cycle_8x8.csv": set(),
    "two_blocks_8x8.csv": {"mt-preserving"},
    "chordal-pcm": {"consistent", "mt-preserving"},
    "pc-plus": {"consistent"},
    "chordal": {"mt-preserving"},
    "perturbed": {"reduce"},
}


@pytest.mark.parametrize("name", [*sorted(p.name for p in DATA.glob("*.csv")), *SEEDED])
def test_out_files_carry_exact_certificates(name, tmp_path, capsys):
    text = (DATA / name).read_text() if name.endswith(".csv") else _seeded(name)
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_text(text)
    src = exact.tokens(text)
    a = exact.values(src)
    mt_in = exact.product_range(a)[1]
    taken = set()
    for argv in COMMANDS:
        out.unlink(missing_ok=True)
        code = main([argv[0], str(path), *argv[1:], "--out", str(out)])
        stdout = capsys.readouterr().out
        if not out.exists():  # refused: a complete file, or no completion of this kind
            assert code in (1, 2), argv
            continue
        got = exact.tokens(out.read_text())
        b = exact.values(got)
        assert len(b) == len(a) and all(len(row) == len(a) and None not in row for row in b), argv
        lo, hi = exact.product_range(b)
        if argv[0] == "reduce":
            assert code in (0, 1), argv
            if got != src:
                assert hi < mt_in, argv
                taken.add("reduce")
        else:
            assert code == 0, argv
            kept = [(i, j) for i, row in enumerate(src) for j, t in enumerate(row) if t != "?"]
            assert [got[i][j] for i, j in kept] == [src[i][j] for i, j in kept], argv
            if "mode: consistent" in stdout.splitlines():
                assert 1 - TOL <= lo and hi <= 1 + TOL, argv
                taken.add("consistent")
            else:
                assert hi <= mt_in * (1 + TOL), argv
                taken.add("mt-preserving")
    assert taken == CERTIFICATES[name]
