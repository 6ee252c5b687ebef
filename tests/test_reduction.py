import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
import oracle
from oracle import specified_triads
from triadcomplete import (
    DEFAULT_TOL,
    Tolerances,
    completion,
    mt,
    reduce,
    reduce_step,
    validate,
)
from triadcomplete.errors import MatrixTooSmallError
from triadcomplete.measures import TriadTables, triad_scan
from triadcomplete.reduction import (
    EDGE_RULES,
    STOP_MAX_STEPS,
    STOP_NO_DECREASE,
    STOP_TARGET,
    STOP_TIE,
)


class TestWorstTriad:
    def test_single_triangle_no_tie(self):
        m = validate([[1, 2, 1], [0.5, 1, 2], [1, 0.5, 1]]).to_complete()
        scan = triad_scan(m)
        assert scan.worst == ((0, 1, 2), pytest.approx(4.0))
        assert not scan.tie

    def test_completed_five_by_five(self):
        # Enumerating all ten triads puts the unique maximum, 4, on the
        # triangle {0, 1, 2}; the runner-up is 3 on {0, 1, 3}.
        m = cases.five_completed()
        scan = triad_scan(m)
        assert scan.worst == ((0, 1, 2), pytest.approx(4.0, rel=1e-12))
        assert not scan.tie
        others = sorted((max(v, 1.0 / v) for *_, v in specified_triads(m)), reverse=True)
        assert others[1] == pytest.approx(3.0, rel=1e-12)

    def test_consistent_matrix_ties(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 4)).to_complete()
        scan = triad_scan(m)
        assert scan.worst[1] == pytest.approx(1.0) and scan.tie


class TestReduceStep:
    def test_too_small(self):
        with pytest.raises(MatrixTooSmallError):
            reduce_step(validate([[1, 3], [1 / 3, 1]]).to_complete())

    def test_three_by_three_repairs_to_consistency(self):
        m = validate([[1, 2, 1], [0.5, 1, 2], [1, 0.5, 1]]).to_complete()
        repaired, step = reduce_step(m)
        assert step.mt_before == pytest.approx(4.0)
        assert step.mt_after == pytest.approx(1.0, rel=1e-9)
        assert mt(repaired) == pytest.approx(1.0, rel=1e-9)

    def test_perturbed_rank_one_restored(self, rng):
        m, original, (i, j) = cases.perturbed_consistent(rng, 4, factor=9.0)
        repaired, step = reduce_step(m)
        assert step.edge == (i, j)
        assert mt(repaired) == pytest.approx(1.0, rel=1e-9)
        assert np.max(np.abs(repaired.entries / original.entries - 1.0)) <= 1e-9

    def test_five_by_five_best_edge(self):
        # The best repair masks the (0,1) entry of the worst triangle; the
        # measure then falls to the next-largest triad product, 2*sqrt(sqrt(6)/2).
        m = cases.five_completed()
        repaired, step = reduce_step(m)
        assert step.edge == (0, 1)
        expected = 2.0 * math.sqrt(cases.SQRT6 / 2.0)
        assert step.mt_after == pytest.approx(expected, rel=1e-9)
        # grid cross-check: no choice for the masked entry does better
        masked = m.without_entry(0, 1)
        grid = oracle.GridSpec(step.new_value / 10, step.new_value * 10, 2001)
        best_over_grid = min(
            oracle.brute_mt(masked.with_entry(0, 1, float(x)))
            for x in grid.values()
        )
        assert step.mt_after <= best_over_grid * (1 + 1e-9)

    def test_single_entry_rule_uses_extreme_pair(self):
        m = cases.five_completed()
        repaired, step = reduce_step(m, edge_rule="paper")
        assert step.edge == (0, 2)  # (min, max) of the worst triangle {0,1,2}
        assert step.mt_after <= step.mt_before * (1 + 1e-12)

    def test_unknown_edge_rule(self):
        m = cases.five_completed()
        with pytest.raises(ValueError):
            reduce_step(m, edge_rule="random")
        # reduce refuses it up front, also where no step would run.
        m = cases.consistent_matrix([1.0, 2.0, 4.0]).to_complete()
        assert reduce(m).stop_reason == STOP_TARGET
        with pytest.raises(ValueError, match="unknown edge rule 'bogus'"):
            reduce(m, edge_rule="bogus")

    def test_only_one_pair_changes(self, rng):
        m, _, _ = cases.perturbed_consistent(rng, 5)
        repaired, step = reduce_step(m)
        i, j = step.edge
        changed = np.argwhere(repaired.entries != m.entries)
        assert {tuple(x) for x in changed} <= {(i, j), (j, i)}
        assert repaired.entries[i, j] * repaired.entries[j, i] == 1.0

    # Each candidate is refilled by the engine's checked fill step, so its
    # checks fire here as in tests/test_completion.py.
    def test_empty_interval_check_fires(self, monkeypatch):
        # Against mt = 1 the constraining products of entry (0, 1) leave no value.
        monkeypatch.setattr(TriadTables, "cleared", lambda t, a, b: 1.0)
        with pytest.raises(AssertionError, match=re.escape("empty feasible interval at (0, 1)")):
            reduce_step(cases.five_completed())

    def test_measure_increase_check_fires(self, monkeypatch):
        monkeypatch.setattr(completion, "select_value", lambda interval, selection: 2 * interval.hi)
        with pytest.raises(AssertionError, match=re.escape("measure increased at (0, 1): ")):
            reduce_step(cases.five_completed())

    @given(
        n=st.integers(3, 64),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0, 8, 60]),
        tie_grid=st.booleans(),
        edge_rule=st.sampled_from(EDGE_RULES),
        chain=st.integers(1, 3),
    )
    def test_candidate_mt_equals_full_scan(self, n, seed, shift, tie_grid, edge_rule, chain):
        # A candidate's mt is max(context, new triads), never a rescan; it
        # must still be the rescan's bits, as must the interval's context.
        rng = np.random.default_rng(seed)
        if tie_grid:  # all ones but one entry: every triad through it ties at 4
            raw = np.ones((n, n))
            i, j = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            raw[i, j], raw[j, i] = 4.0, 0.25
        else:
            raw = np.triu(cases.log_uniform(rng, 1 / 9, 9, (n, n)), 1)
            raw *= np.ldexp(1.0, rng.integers(-shift, shift + 1, (n, n)))
            raw[np.tril_indices(n)] = np.nan
        m = validate(raw).to_complete()
        for _ in range(chain):
            result, step = reduce_step(m, edge_rule=edge_rule)
            assert step.mt_after == triad_scan(result).mt
            assert step.interval.mt_context == mt(m.without_entry(*step.edge))
            m = result


class TestCarriedTables:
    @settings(max_examples=25)
    @given(
        n=st.integers(3, 64),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0, 8, 60]),
        tie_grid=st.booleans(),
        edge_rule=st.sampled_from(EDGE_RULES),
    )
    def test_reduce_equals_iterated_reduce_step(self, n, seed, shift, tie_grid, edge_rule):
        # reduce carries one set of triad tables across its steps; iterating the
        # public reduce_step rebuilds them each time.  Both must agree exactly.
        rng = np.random.default_rng(seed)
        if tie_grid:  # all ones but one entry: every triad through it ties at 4
            raw = np.ones((n, n))
            i, j = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            raw[i, j], raw[j, i] = 4.0, 0.25
        else:
            raw = np.triu(cases.log_uniform(rng, 1 / 9, 9, (n, n)), 1)
            raw *= np.ldexp(1.0, rng.integers(-shift, shift + 1, (n, n)))
            raw[np.tril_indices(n)] = np.nan
        m = validate(raw).to_complete()
        trace = reduce(m, 1.0, max_steps=8, edge_rule=edge_rule)
        current, mt_now, steps = m, triad_scan(m).mt, []
        while True:  # reduce's acceptance rule, one public step at a time
            if mt_now <= 1.0 + DEFAULT_TOL.cmp:
                reason = STOP_TARGET
                break
            if len(steps) >= 8:
                reason = STOP_MAX_STEPS
                break
            result, step = reduce_step(current, edge_rule=edge_rule)
            if step.mt_after * (1.0 + DEFAULT_TOL.cmp) < mt_now:
                # An untied step strictly lowers mt, by one fresh scan of its result.
                assert step.tie or triad_scan(result).mt < step.mt_before
                current, mt_now = result, step.mt_after
                steps.append(step)
                continue
            reason = STOP_TIE if step.tie else STOP_NO_DECREASE
            break
        assert trace.mt_initial == triad_scan(m).mt
        assert trace.steps == tuple(steps)
        assert trace.stop_reason == reason
        assert trace.result.entries.tobytes() == current.entries.tobytes()


class TestReduce:
    def test_consistent_input_stops_immediately(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 4)).to_complete()
        trace = reduce(m, target_mt=1.0 + 1e-6)
        assert trace.steps == () and trace.stop_reason == STOP_TARGET
        assert trace.mt_final == trace.mt_initial

    def test_monotone_decrease_on_random_perturbations(self, rng):
        for _ in range(20):
            m, _, _ = cases.perturbed_consistent(rng, 5)
            trace = reduce(m, target_mt=1.0 + 1e-6, max_steps=50)
            assert trace.stop_reason == STOP_TARGET
            previous = trace.mt_initial
            for step in trace.steps:
                assert step.mt_after <= previous * (1 + 1e-12)
                if not step.tie:
                    assert step.mt_after < previous
                previous = step.mt_after

    def test_max_steps_budget(self, rng):
        m, _, _ = cases.perturbed_consistent(rng, 5)
        trace = reduce(m, target_mt=1.0, max_steps=0)
        assert trace.steps == () and trace.stop_reason == STOP_MAX_STEPS

    def test_structural_tie_stops_cleanly(self, rng):
        # Two disjoint perturbed pairs tie at the same worst product; one
        # entry change cannot lower the measure, so the loop must stop
        # rather than churn.
        m = cases.consistent_matrix(cases.random_weights(rng, 4))
        m = m.with_entry(0, 1, float(m.entries[0, 1]) * 9.0)
        m = m.with_entry(2, 3, float(m.entries[2, 3]) * 9.0).to_complete()
        trace = reduce(m, target_mt=1.0, max_steps=10)
        assert trace.stop_reason == STOP_TIE
        assert trace.steps == ()
        assert trace.mt_final == pytest.approx(9.0, rel=1e-9)

    def test_a_step_within_the_comparison_tolerance_is_not_applied(self):
        # MT is 1.25, and the best step (repairing (1, 2)) leaves the triads
        # through (4, 5) at 1.2: a decrease of 4%, inside cmp = 10%, so no cell
        # changes.  In exact arithmetic a step this small leaves a second triad
        # within cmp of the peak, so the stop is a tie.
        raw = np.ones((5, 5))
        raw[0, 1], raw[3, 4] = 1.25, 1.2
        raw[np.tril_indices(5, -1)] = np.nan
        m = validate(raw).to_complete()
        tol = Tolerances(cmp=0.1)
        assert reduce_step(m, tol)[1].mt_after == 1.2
        trace = reduce(m, tol=tol)
        assert trace.steps == () and trace.stop_reason == STOP_TIE
        assert np.array_equal(trace.result.entries, m.entries) and trace.mt_final == 1.25

    def test_every_step_edge_is_ascending(self):
        # The worst 3-cycle can run against its indices; the repaired pair is
        # still reported as (a, b) with a < b.
        rng = np.random.default_rng(0)
        for _ in range(20):
            trace = reduce(cases.random_prm(rng, 8, p=1.0).to_complete(), max_steps=4)
            assert trace.steps and all(a < b for a, b in (s.edge for s in trace.steps))

    def test_result_remains_valid_reciprocal(self, rng):
        m, _, _ = cases.perturbed_consistent(rng, 6)
        trace = reduce(m, target_mt=1.0 + 1e-6, max_steps=10)
        validate(trace.result.entries)  # must not raise
        assert np.allclose(trace.result.entries * trace.result.entries.T, 1.0, rtol=1e-9)

    def test_invalid_arguments(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 3)).to_complete()
        with pytest.raises(ValueError):
            reduce(m, target_mt=0.5)
        with pytest.raises(ValueError):
            reduce(m, max_steps=-1)
