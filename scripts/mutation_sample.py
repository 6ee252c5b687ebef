"""Check that each tolerance, kernel, ordering and writer check has a test that fails when it is broken.

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
        "tie = len(rows) > 1 or len(hits) > 1 or abs(min(v, 1.0 / v) / peak - 1.0) <= tol.cmp",
        "tie = len(rows) > 1 or abs(min(v, 1.0 / v) / peak - 1.0) <= tol.cmp",
        "tests/test_measures.py::TestTriadScan::test_random_partial_matrices",
    ),
    # The worst triad is reported in its ascending orientation even when the
    # reverse 3-cycle has the larger product.
    (
        "measures.py",
        "worst = ((i, j, k), v) if v >= 1.0 / v else ((k, j, i), 1.0 / v)",
        "worst = ((i, j, k), v)",
        "tests/test_measures.py::TestTriadScan::test_random_partial_matrices",
    ),
    # A reduce step takes the worst 3-cycle's indices in its own order, so its
    # edge can run from the larger index to the smaller.
    (
        "reduction.py",
        "i, j, k = sorted(scan.worst[0])",
        "i, j, k = scan.worst[0]",
        "tests/test_reduction.py::TestReduce::test_every_step_edge_is_ascending",
    ),
    # The chordal ordering retests a rejected pair whenever its separator grows,
    # not only when the growth meets the path the pair was rejected with.
    (
        "graphs.py",
        "if paths[pair] >> b & 1:",
        "if True:",
        "tests/test_graphs.py::TestChordalOrdering::test_separator_tests_per_accepted_edge_stay_within_n[64]",
    ),
    # The chordal ordering never tests again a pair at an accepted edge's end.
    (
        "graphs.py",
        "heappush(heap, (-pair[0], -pair[1]))",
        "pass",
        "tests/test_graphs.py::TestChordalOrdering::test_equals_restart_scan_at_scale",
    ),
    # The triad kernel groups its products e[j,k] * (e[i,j] * e[k,i]).
    (
        "measures.py",
        "prods = np.multiply(jk, ij, out=out)\n"
        "    return np.multiply(prods, ki, out=prods)",
        "prods = np.multiply(ij, ki, out=out)\n"
        "    return np.multiply(prods, jk, out=prods)",
        "tests/test_measures.py::TestTriadTables::test_updates_equal_a_fresh_scan",
    ),
    # The gathered triples group their products (e[k,i] * e[i,j]) * e[j,k].
    (
        "measures.py",
        "jk, ij, ki = e.take(j * n + k), e_t.take(j * n + i), e.take(k * n + i)",
        "jk, ij, ki = e.take(k * n + i), e_t.take(j * n + i), e.take(j * n + k)",
        "tests/test_measures.py::TestGatheredScan::test_equals_the_per_middle_tables_bit_for_bit",
    ),
    # The gathered middles' row peaks take the ascending product alone, not max(v, 1/v).
    (
        "measures.py",
        "np.fmax(prods, 1.0 / prods)",
        "prods",
        "tests/test_measures.py::TestGatheredScan::test_equals_the_per_middle_tables_bit_for_bit",
    ),
    # A set pair leaves the row peaks as they were.
    (
        "measures.py",
        "self._update(e, self.mid, a, b, peaks=True)",
        "self._update(e, self.mid, a, b, peaks=False)",
        "tests/test_measures.py::TestTriadTables::test_updates_equal_a_fresh_scan",
    ),
    # The trace writer drops the separator between a table's chunks.
    (
        "cli.py",
        '(between if start else "[" + inner)',
        '("" if start else "[" + inner)',
        "tests/test_cli.py::TestTraceEmitter::test_tables_at_chunk_borders[chunk-plus-one]",
    ),
    # The trace writer fills each chunk one row short.
    (
        "cli.py",
        "part = rows[start : start + CHUNK_ROWS]",
        "part = rows[start : start + CHUNK_ROWS - 1]",
        "tests/test_cli.py::TestTraceEmitter::test_tables_at_chunk_borders[chunk]",
    ),
    # The comparison tolerance's floor at half its value.
    (
        "matrices.py",
        "if self.cmp < CMP_FLOOR:",
        "if self.cmp < CMP_FLOOR / 2:",
        "tests/test_cli.py::TestUsage::test_comparison_tolerance_below_the_floor_exits_two",
    ),
    # validate's reciprocity test at twice the reciprocity tolerance.
    (
        "matrices.py",
        "np.abs(product - 1.0) > tol.rec,",
        "np.abs(product - 1.0) > 2 * tol.rec,",
        "tests/test_matrices.py::TestValidate::test_reciprocity_check_at_its_threshold",
    ),
    # validate stores a pair whose reciprocal underflows to 0.
    (
        "matrices.py",
        "(mirror == 0.0) | (mirror == np.inf),",
        "(mirror == np.inf),",
        "tests/test_matrices.py::TestValidate::test_reciprocal_out_of_range",
    ),
    # The PC+ test's tree check at twice the consistency tolerance.
    (
        "measures.py",
        "off = np.argwhere(np.triu(np.abs(ratio - 1.0) > tol.cons, 1))",
        "off = np.argwhere(np.triu(np.abs(ratio - 1.0) > 2 * tol.cons, 1))",
        "tests/test_measures.py::TestIsPcPlus::test_violation_check_at_its_threshold",
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
