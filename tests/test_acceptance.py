"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and
prints a PASS line, so ``pytest -s tests/test_acceptance.py`` doubles as a
checklist.  Random instances are seeded and therefore reproducible.
"""

import math
import time

import numpy as np
import pytest

import cases
from triadcomplete import (
    SpecGraph,
    chordal_ordering,
    complete_consistent_pc_plus,
    complete_mt_preserving,
    feasible_interval,
    is_chordal,
    is_pc_plus,
    is_pcm,
    join_blocks,
    mt,
    reduce,
    validate,
)
from triadcomplete.errors import ComponentNotChordalError, NotPCPlusError
from oracle import (
    GridSpec,
    brute_cycle_products,
    brute_mt,
    complete_consistent_chordal,
    constraint_products,
    grid_interval,
)

SQRT6 = cases.SQRT6


def _passed(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def chordal_instances(seed, count, grid_points=10_000):
    """Seeded random chordal partial matrices whose first fill step has a
    feasible interval wider than two grid steps (so a log grid can resolve
    its endpoints)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(4, 9))
        prm = cases.random_chordal_prm(rng, n, min_missing=1)
        i, k = chordal_ordering(SpecGraph.from_matrix(prm))[0]
        fi = feasible_interval(prm, i, k)
        step = (100.0 * fi.hi / fi.lo) ** (1.0 / (grid_points - 1))
        if fi.hi / fi.lo < step**2:
            continue
        out.append((prm, (i, k), fi))
    return out


def test_criterion_01_cycle_example_classification_and_exact_completion():
    tol = 1e-9
    m = validate(cases.CYCLE_PCM)
    assert is_pcm(m)
    ok, _ = is_pc_plus(m)
    assert not ok
    chordal, witness = is_chordal(SpecGraph.from_matrix(m))
    assert not chordal and len(witness) == 4 and sorted(witness) == [0, 1, 2, 3]
    with pytest.raises(ComponentNotChordalError):
        complete_consistent_chordal(m)
    with pytest.raises(NotPCPlusError):
        complete_consistent_pc_plus(m)

    fixed = validate(cases.CYCLE_PC_PLUS)
    assert is_pc_plus(fixed) == (True, None)
    done = complete_consistent_pc_plus(fixed)
    assert done.entries[0, 2] == pytest.approx(2 / 3, rel=tol)
    assert done.entries[1, 3] == pytest.approx(5 / 3, rel=tol)

    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        complete_consistent_pc_plus(fixed)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"completion took {best * 1e6:.0f} us"
    _passed(1, f"4x4 cycle classified and completed exactly ({best * 1e6:.0f} us/run)")


def test_criterion_02_first_interval_and_minimax():
    tol = 1e-9
    a = cases.sub_four()
    assert mt(a) == pytest.approx(2.0, rel=tol)
    products = constraint_products(a, 0, 3)
    assert sorted(s for _, s in products) == pytest.approx([1 / 4, 2 / 3], rel=tol)
    fi = feasible_interval(a, 0, 3)
    assert fi.lo == pytest.approx(1 / 3, rel=tol)
    assert fi.hi == pytest.approx(1 / 2, rel=tol)
    assert fi.minimax == pytest.approx(SQRT6 / 6, rel=tol)
    assert cases.minimax_value(fi) == pytest.approx(2 * SQRT6 / 3, rel=tol)
    _passed(2, "4x4 subproblem: interval [1/3, 1/2], minimax sqrt(6)/6")


def test_criterion_03_second_interval_and_preserved_measure():
    tol = 1e-9
    n_partial = cases.five_partial()
    b = n_partial.with_entry(1, 4, SQRT6 / 6)
    assert mt(b) == pytest.approx(4.0, rel=tol)
    products = constraint_products(b, 0, 4)
    assert sorted(s for _, s in products) == pytest.approx([1 / 2, 1.0, SQRT6], rel=tol)
    fi = feasible_interval(b, 0, 4)
    assert fi.lo == pytest.approx(SQRT6 / 4, rel=tol)
    assert fi.hi == pytest.approx(2.0, rel=tol)
    assert fi.minimax == pytest.approx(math.sqrt(SQRT6 / 2), rel=tol)
    assert cases.minimax_value(fi) == pytest.approx(math.sqrt(2 * SQRT6), rel=tol)
    completed = b.with_entry(0, 4, fi.minimax).to_complete()
    assert mt(completed) == pytest.approx(4.0, rel=tol)
    assert mt(completed) == pytest.approx(mt(n_partial), rel=tol)
    _passed(3, "5x5 second step: interval [sqrt(6)/4, 2], final measure 4 preserved")


def test_criterion_04_block_join_keeps_max_measure():
    tol = 1e-9
    ntilde = cases.five_completed()
    p = validate(cases.BLOCK_THREE).to_complete()
    assert brute_mt(p) == pytest.approx(2.0, rel=tol)
    joined = join_blocks(ntilde, p, u_col=2, v_col=0, k=1.0)
    assert mt(joined) == pytest.approx(4.0, rel=tol)
    assert mt(joined) == pytest.approx(max(mt(ntilde), brute_mt(p)), rel=tol)
    _passed(4, "5x5 + 3x3 join via middle/first columns keeps measure 4")


def test_criterion_05_interval_formula_matches_grid_oracle():
    t0 = time.perf_counter()
    points = 10_000
    instances = chordal_instances(seed=50, count=200, grid_points=points)
    for prm, (i, k), fi in instances:
        grid = GridSpec(fi.lo / 10, fi.hi * 10, points)
        emp = grid_interval(prm, i, k, grid)
        step = grid.step_factor
        assert emp.lo is not None, "no feasible grid point found"
        assert fi.lo / step <= emp.lo * (1 + 1e-9) and emp.lo <= fi.lo * step * (1 + 1e-9)
        assert fi.hi / step <= emp.hi * (1 + 1e-9) and emp.hi <= fi.hi * step * (1 + 1e-9)
        base = mt(prm)
        for endpoint in (fi.lo, fi.hi):
            assert mt(prm.with_entry(i, k, endpoint)) <= base * (1 + 1e-9)
        assert mt(prm.with_entry(i, k, fi.lo * (1 - 1e-6))) > base * (1 + 1e-8)
        assert mt(prm.with_entry(i, k, fi.hi * (1 + 1e-6))) > base * (1 + 1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passed(5, f"200 seeded instances: grid oracle brackets the interval ({elapsed:.1f}s)")


def test_criterion_06_product_spread_bound_at_every_step():
    instances = chordal_instances(seed=50, count=200)
    checked = 0
    for prm, _, _ in instances:
        current = prm
        ordering = chordal_ordering(SpecGraph.from_matrix(prm))
        for i, k in ordering:
            # lo = s_max / mt and hi = mt * s_min, so lo <= hi is s_max <= mt^2 * s_min.
            fi = feasible_interval(current, i, k)
            assert fi.lo <= fi.hi * (1 + 1e-12)
            current = current.with_entry(i, k, fi.minimax)
            checked += 1
    _passed(6, f"s_max <= mt^2 * s_min held at all {checked} fill steps")


def test_criterion_07_delete_and_recover_uniqueness():
    rng = np.random.default_rng(70)
    for _ in range(100):
        n = int(rng.integers(4, 9))
        full = cases.consistent_matrix(cases.random_weights(rng, n))
        g = cases.random_connected_chordal_graph(rng, n, min_missing=1)
        partial = cases.mask_to_graph(full, g)
        # A relabelled copy is completed along another order; map it back.
        perm = rng.permutation(n)
        recovered = [
            complete_consistent_chordal(partial).entries,
            complete_consistent_chordal(cases.permuted(partial, perm)).entries[np.ix_(perm, perm)],
            complete_consistent_pc_plus(partial).entries,
            complete_mt_preserving(partial).result.entries,
        ]
        for r in recovered:
            assert np.max(np.abs(r / full.entries - 1.0)) <= 1e-8
        assert np.max(np.abs(recovered[0] / recovered[1] - 1.0)) <= 1e-8
    for _ in range(100):
        n = int(rng.integers(4, 9))
        partial, full = cases.random_nonchordal_pcplus(rng, n)
        r = complete_consistent_pc_plus(partial)
        assert np.max(np.abs(r.entries / full.entries - 1.0)) <= 1e-8
        with pytest.raises(ComponentNotChordalError):
            complete_consistent_chordal(partial)
    _passed(7, "200 delete-and-recover runs agree with the source within 1e-8")


def test_criterion_08_measure_preserved_for_all_selection_rules():
    rng = np.random.default_rng(80)
    for trial in range(200):
        if trial % 7 == 0:
            prm = cases.random_two_component_chordal_prm(rng)
        else:
            prm = cases.random_chordal_prm(rng, int(rng.integers(4, 9)), min_missing=1)
        base = mt(prm)
        for selection in ("minimax", "midpoint", "lo", "hi"):
            report = complete_mt_preserving(prm, selection=selection)
            assert mt(report.result) == pytest.approx(base, rel=1e-9), (
                f"selection {selection} changed the measure"
            )
    _passed(8, "200 instances x 4 selection rules: measure preserved within 1e-9")


def test_criterion_09_reduction_repairs_single_bad_entry():
    rng = np.random.default_rng(90)
    for _ in range(100):
        bad, _, _ = cases.perturbed_consistent(rng, 5, factor=9.0)
        trace = reduce(bad, target_mt=1.0 + 1e-6, max_steps=3)
        assert trace.stop_reason == "target_reached"
        assert len(trace.steps) <= 3
        assert trace.mt_final <= 1.0 + 1e-6
        previous = trace.mt_initial
        replay = bad
        for step in trace.steps:
            assert step.mt_after <= previous * (1 + 1e-12)
            if not step.tie:
                assert step.mt_after < previous
            replay = replay.without_entry(*step.edge).with_entry(
                *step.edge, step.new_value
            ).to_complete()
            assert np.allclose(replay.entries * replay.entries.T, 1.0, rtol=1e-9)
            previous = step.mt_after
        assert np.array_equal(replay.entries, trace.result.entries)
    _passed(9, "100 perturbed matrices repaired to measure 1 in <= 3 steps")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = cases.random_prm(rng, n, p=float(rng.uniform(0.25, 0.95)))
        fast = mt(m)
        slow = brute_mt(m)
        assert abs(fast / slow - 1.0) <= 1e-12
        via_cycles = all(abs(p - 1.0) <= 1e-9 for _, p in brute_cycle_products(m))
        assert is_pc_plus(m)[0] == via_cycles
    _passed(10, "1000 random instances: fast paths match brute-force oracles")
