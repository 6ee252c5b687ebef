"""A seeded fuzz of the command line.

Each example writes one matrix file and runs one ``cli.main`` call on it.  The
file is drawn from a pattern of :mod:`cases` (star, tree, clique-attached,
non-chordal, in one or two blocks, or complete) with entries 10^U(-e, e) for
e up to 300, consistent or not, each cell spelled as a fraction, an exponent
or a repr, with padding, a byte order mark, and blank and comment lines.  The
call is any subcommand with any of its flags, and one case in five has one
refused flag value or junk cell.  Whatever is drawn, the call must end in exit code
0, 1 or 2 with no traceback, and every ``complete --out`` or ``reduce --out``
that exits 0 must carry the exact certificate of :mod:`exact` (see
``tests/test_exact.py``).
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import cases
import exact
from triadcomplete.cli import main
from triadcomplete.completion import SELECTIONS
from triadcomplete.reduction import EDGE_RULES

PATTERNS = ("star", "tree", "clique-attached", "non-chordal")
TOL = Fraction(1, 10**9)  # the default --tol-cons and --tol-cmp, which the certificates state
JUNK = st.text(max_size=4) | st.sampled_from(["", "abc", "1_0", "1/0", "-2", "0", "inf", "nan", "1e999",
                                               "?", "3 / 4", "١", "0x10"])


def _pattern(rng, kind: str, n: int) -> set[tuple[int, int]]:
    """The edges of one block of ``kind`` on vertices 0..n-1."""
    if kind != "non-chordal":
        return set(cases.graph_of_kind(rng, kind, n).edges)
    if n < 4:  # too small for a chordless cycle
        return set(cases.star_graph(n).edges)
    return set(cases.random_nonchordal_pcplus(rng, n)[0].graph.edges)


def _entries(rng, n: int, blocks: list[str], spread: float, consistent: bool) -> np.ndarray:
    """Upper-triangle entries, NaN where unspecified; ``blocks == []`` is complete."""
    if consistent:  # weights 10^U(-e/2, e/2), so every ratio lies within 10^±e
        w = 10.0 ** rng.uniform(-spread / 2, spread / 2, n)
        values = w[:, None] / w[None, :]
    else:
        values = 10.0 ** rng.uniform(-spread, spread, (n, n))
    if not blocks:
        return values
    edges = set()
    for kind, block in zip(blocks, np.array_split(rng.permutation(n), len(blocks))):
        edges |= {tuple(sorted((int(block[i]), int(block[j]))))
                  for i, j in _pattern(rng, kind, len(block))}
    keep = np.full((n, n), np.nan)
    for i, j in edges:
        keep[i, j] = values[i, j]
    return keep


def _spell(x: float, style: str) -> tuple[str, str]:
    """Tokens for x and for its reciprocal at the mirrored cell."""
    if style == "fraction":
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}", f"{f.denominator}/{f.numerator}"
    if style == "exponent":
        return f"{x:.16e}", f"{1 / x:.16E}"
    return repr(x), repr(1 / x)


def _file(draw, rng, complete: bool, broken: bool) -> tuple[str, str]:
    """The text of a matrix file, and that text with its byte order mark dropped."""
    n = draw(st.integers(3 if complete else 1, 12))
    blocks = [] if complete else draw(st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=2))
    spread = draw(st.sampled_from([0.0, 0.95, 4.0, 300.0]))
    a = _entries(rng, n, blocks, spread, draw(st.booleans()))
    styles = draw(st.lists(st.sampled_from(["fraction", "exponent", "repr"]), min_size=1, unique=True))
    grid = [[draw(st.sampled_from(["1", "1.0", "1/1"])) if i == j else "?" for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not np.isnan(a[i, j]):
                grid[i][j], grid[j][i] = _spell(float(a[i, j]), styles[rng.integers(len(styles))])
    if broken:
        grid[rng.integers(n)][rng.integers(n)] = draw(JUNK)
    pad = draw(st.sampled_from(["", " ", "\t ", "  "]))
    lines = [pad + ",".join(pad + cell + pad for cell in row) + pad for row in grid]
    for extra in draw(st.lists(st.sampled_from(["", "   ", "# comment", "  # note, with, commas"]),
                               max_size=3)):
        lines.insert(int(rng.integers(len(lines) + 1)), extra)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, text


# Each flag's values: the valid ones, then the ones that must be refused.
_TOLERANCE = (["1e-9", "1e-12", "1e-6", "1e-3", "2e-15"], ["0", "-1e-9", "nan", "inf", "x"])
_TOL_CMP = (_TOLERANCE[0], [*_TOLERANCE[1], "1e-15"])  # below --tol-cmp's floor of 8 epsilons
FLAGS = {
    "check": {},
    "measure": {},
    "complete": {
        "--mode": (["auto", "consistent", "mt-preserving"], ["other"]),
        "--selection": (list(SELECTIONS), ["other"]),
        "--join-k": (["1", "2", "0.5", "1e-300", "1e300"], ["0", "-1", "inf", "nan", "x"]),
        "--join-cols": (["1,1", "2,1", "1,2", "2,2"], ["0,1", "9,9", "1", "a,b"]),
    },
    "reduce": {
        "--target-mt": (["1", "1.000001", "2", "1e308"], ["0.5", "-1", "nan", "x"]),
        "--max-steps": (["0", "1", "3", "8"], ["-1", "1.5"]),
        "--edge": (list(EDGE_RULES), ["other"]),
    },
}


@st.composite
def _cases(draw):
    """A subcommand's argv, with ``{path}`` and ``{out}`` to fill, and its file's two texts.

    One case in five has one thing wrong: a refused flag value or a junk cell.
    ``reduce`` gets complete files, the other commands partial ones.
    """
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {"--tol-rec": _TOLERANCE, "--tol-cons": _TOLERANCE, "--tol-cmp": _TOL_CMP, **FLAGS[command]}
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    wrong = draw(st.sampled_from([None] * 4 + ["junk", *names]))
    argv = [command, "{path}"]
    for flag in names:
        argv += [flag, draw(st.sampled_from(flags[flag][flag == wrong]))]
    argv += draw(st.sampled_from([[], ["--trace"]]))
    if command in ("complete", "reduce"):
        argv += draw(st.sampled_from([[], ["--out", "{out}"], ["--out", "{out}"]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return argv, _file(draw, rng, command == "reduce", wrong == "junk")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _default_tolerances(argv: list[str]) -> bool:
    """No tolerance above the defaults, which the certificates' bounds assume."""
    given = {flag: value for flag, value in zip(argv, argv[1:]) if flag.startswith("--tol-")}
    return all(float(value) <= 1e-9 for value in given.values())


def _certify(argv: list[str], text: str, out: Path, stdout: str) -> None:
    """The checks of tests/test_exact.py on one --out file written with exit 0."""
    src = exact.tokens(text)
    got = exact.tokens(out.read_text(encoding="utf-8"))
    a, b = exact.values(src), exact.values(got)
    assert len(b) == len(a) and all(len(row) == len(a) and None not in row for row in b)
    mt_in, (lo, hi) = exact.product_range(a)[1], exact.product_range(b)
    if argv[0] == "reduce":
        assert got == src or hi < mt_in
        return
    kept = [(i, j) for i, row in enumerate(src) for j, t in enumerate(row) if t != "?"]
    assert [got[i][j] for i, j in kept] == [src[i][j] for i, j in kept]
    if not _default_tolerances(argv):
        return
    if "--trace" in argv:
        consistent = json.loads(stdout)["completion"]["mode"] == "consistent"
    else:
        consistent = "mode: consistent" in stdout.splitlines()
    if consistent:
        assert 1 - TOL <= lo and hi <= 1 + TOL
    else:
        assert hi <= mt_in * (1 + TOL)


@seed(20261020)
@settings(max_examples=8 * settings.default.max_examples)  # about 3 s at the suite profile
@given(_cases())
def test_cli_ends_in_an_exit_code_and_certified_files(case):
    argv, (raw, text) = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        path.write_text(raw, encoding="utf-8")
        argv = [str(path) if a == "{path}" else str(out) if a == "{out}" else a for a in argv]
        code, stdout, stderr = _run(argv)
        assert code in (0, 1, 2), (code, stderr)
        assert "Traceback" not in stderr
        if code == 0 and "--out" in argv:
            _certify(argv, text, out, stdout)
