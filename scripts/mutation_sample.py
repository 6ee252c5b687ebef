"""Check that each tolerance and kernel check has a test that fails when the check is broken.

    python scripts/mutation_sample.py

``MUTANTS`` lists one-line faults as (file under ``src/triadcomplete``,
old text, new text, the test that must fail on it).  Each old text occurs
exactly once in the package.  The named tests first run on an unmutated
copy, where they must pass.  Then, per mutant, ``src/``, ``tests/``,
``data/`` (which ``tests/test_cli.py`` reads) and ``pyproject.toml`` are
copied into a temporary directory (pytest's ``pythonpath = ["src"]``
would otherwise import this tree's package), the one replacement is made
there, and only the named test runs.  One line per mutant says whether
it was killed; the exit code is 1 if any mutant survives, if an old text
is not found exactly once, or if a named test fails unmutated.  The tree
itself is never edited.  Hypothesis runs with a fixed seed, so a kill
does not depend on the draw.  Needs pytest and the test extra, as tier-1
does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # The fill step's empty-interval check at a fixed 1e-6 in place of cmp.
    (
        "completion.py",
        "if not interval.lo <= interval.hi * (1.0 + tol.cmp):",
        "if not interval.lo <= interval.hi * (1.0 + 1e-6):",
        "tests/test_completion.py::TestCompleteMtPreserving::test_empty_interval_check_at_its_threshold",
    ),
    # The fill step's not-raised check at a fixed 1e-6 in place of cmp.
    (
        "completion.py",
        "if not after <= context * (1.0 + tol.cmp):",
        "if not after <= context * (1.0 + 1e-6):",
        "tests/test_completion.py::TestCompleteMtPreserving::test_measure_increase_check_at_its_threshold",
    ),
    # The fill step's chord-forcing check removed.
    (
        "completion.py",
        "if not all(bits[j] & common == common for j in js):",
        "if False:",
        "tests/test_completion.py::TestCompleteMtPreserving::test_chord_forcing_check_fires",
    ),
    # reduce applies any step that lowers mt, however little.
    (
        "reduction.py",
        "if step.mt_after * (1.0 + tol.cmp) < mt_now:",
        "if step.mt_after < mt_now:",
        "tests/test_reduction.py::TestReduce::test_a_step_within_the_comparison_tolerance_is_not_applied",
    ),
    # reduce's target test at twice the comparison tolerance.
    (
        "reduction.py",
        "if mt_now <= target_mt * (1.0 + tol.cmp):",
        "if mt_now <= target_mt * (1.0 + 2 * tol.cmp):",
        "tests/test_cli.py::TestReduce::test_loose_comparison_tolerance_reaches_the_target",
    ),
    # is_pcm reads the comparison tolerance in place of the consistency one.
    (
        "measures.py",
        "return mt(m) <= 1.0 + tol.cons",
        "return mt(m) <= 1.0 + tol.cmp",
        "tests/test_cli.py::TestComplete::test_pcm_reads_the_consistency_tolerance",
    ),
    # The worst-triad tie test misses a second close triad in the worst row.
    (
        "measures.py",
        "tie = len(rows) > 1 or len(hits) > 1 or abs(low / peak - 1.0) <= tol.cmp",
        "tie = len(rows) > 1 or abs(low / peak - 1.0) <= tol.cmp",
        "tests/test_measures.py::TestTriadScan::test_random_partial_matrices",
    ),
    # The chordal ordering forgets its rejections and retests every candidate.
    (
        "graphs.py",
        "if common != cuts[p]:",
        "if True:",
        "tests/test_graphs.py::TestChordalOrdering::test_separator_tests_per_accepted_edge_stay_within_n[64]",
    ),
    # The triad kernel groups its product e[j,k] * (e[i,j] * e[k,i]).
    (
        "measures.py",
        "prods = np.multiply(e[j, rows, None], e_t[j], out=out)\n"
        "    return np.multiply(prods, e[rows], out=prods)",
        "prods = np.multiply(e_t[j], e[rows], out=out)\n"
        "    return np.multiply(prods, e[j, rows, None], out=prods)",
        "tests/test_measures.py::TestTriadTables::test_updates_equal_a_fresh_scan",
    ),
    # A set pair leaves the row peaks as they were.
    (
        "measures.py",
        "self._update(e, self.mid, a, b, peaks=True)",
        "self._update(e, self.mid, a, b, peaks=False)",
        "tests/test_measures.py::TestTriadTables::test_updates_equal_a_fresh_scan",
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "data"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(root: Path, test_ids) -> subprocess.CompletedProcess:
    """The named tests in the copy at ``root``, importing its package only."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = "import triadcomplete; print(triadcomplete.__file__)"
    where = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=env, cwd=root).stdout.strip()
    if not Path(where).is_relative_to(root / "src"):
        raise SystemExit(f"the copy imports the package from {where}, not from {root / 'src'}")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *test_ids]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=root)


def main() -> int:
    package = ROOT / "src" / "triadcomplete"
    failed = False
    for path, old, _, _ in MUTANTS:
        count = sum(p.read_text().count(old) for p in package.glob("*.py"))
        if count != 1 or old not in (package / path).read_text():
            print(f"{path}: old text found {count} times under src/: {old!r}")
            failed = True
    if failed:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        proc = run_tests(base, sorted({test for *_, test in MUTANTS}))
        if proc.returncode != 0:
            print("the named tests fail on the unmutated copy:\n" + proc.stdout + proc.stderr)
            return 1
        for index, (path, old, new, test) in enumerate(MUTANTS):
            root = Path(tmp) / f"mutant{index}"
            copy_tree(root)
            target = root / "src" / "triadcomplete" / path
            target.write_text(target.read_text().replace(old, new))
            killed = run_tests(root, [test]).returncode != 0
            failed |= not killed
            first = old.splitlines()[0]
            print(f"{'killed ' if killed else 'SURVIVED'} {path}: {first!r} by {test}")
            shutil.rmtree(root)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
