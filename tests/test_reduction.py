import math

import numpy as np
import pytest

import cases
from triadcomplete import (
    max_triad,
    mt,
    oracle,
    reduce,
    reduce_step,
    validate,
)
from triadcomplete.errors import MatrixTooSmallError
from triadcomplete.oracle import specified_triads
from triadcomplete.reduction import (
    STOP_MAX_STEPS,
    STOP_TARGET,
    STOP_TIE,
)


class TestWorstTriad:
    def test_single_triangle_no_tie(self):
        m = validate([[1, 2, 1], [0.5, 1, 2], [1, 0.5, 1]]).to_complete()
        triad, tie = max_triad(m)
        assert (triad.i, triad.j, triad.k) == (0, 1, 2)
        assert triad.max_value == pytest.approx(4.0)
        assert not tie

    def test_completed_five_by_five(self):
        # Enumerating all ten triads puts the unique maximum, 4, on the
        # triangle {0, 1, 2}; the runner-up is 3 on {0, 1, 3}.
        m = cases.five_completed()
        triad, tie = max_triad(m)
        assert (triad.i, triad.j, triad.k) == (0, 1, 2)
        assert triad.max_value == pytest.approx(4.0, rel=1e-12)
        assert not tie
        others = sorted((t.max_value for t in specified_triads(m)), reverse=True)
        assert others[1] == pytest.approx(3.0, rel=1e-12)

    def test_consistent_matrix_ties(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 4)).to_complete()
        triad, tie = max_triad(m)
        assert triad.max_value == pytest.approx(1.0) and tie


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

    def test_only_one_pair_changes(self, rng):
        m, _, _ = cases.perturbed_consistent(rng, 5)
        repaired, step = reduce_step(m)
        i, j = step.edge
        changed = np.argwhere(repaired.entries != m.entries)
        assert {tuple(x) for x in changed} <= {(i, j), (j, i)}
        assert repaired.entries[i, j] * repaired.entries[j, i] == 1.0


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
