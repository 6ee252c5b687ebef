import math
from itertools import combinations

import numpy as np
import pytest

import cases
from triadcomplete import (
    SpecGraph,
    chordal_ordering,
    complete_consistent_pc_plus,
    complete_mt_preserving,
    feasible_interval,
    is_consistent,
    join_blocks,
    mt,
    oracle,
    triad_sets_for_entry,
    validate,
)
from triadcomplete.errors import (
    ComponentNotChordalError,
    EntrySpecifiedError,
    NeighborDisagreementError,
    NoCommonNeighborError,
    NotPCMError,
    NotPCPlusError,
)
from triadcomplete.oracle import (
    complete_consistent_chordal,
    complete_one_entry_consistent,
    specified_triads,
)


def rel_diff(a, b):
    return float(np.max(np.abs(a / b - 1.0)))


class TestCompleteOneEntry:
    def test_forced_by_single_triangle(self):
        m = validate([[1, 2, None], [0.5, 1, 3], [None, 1 / 3, 1]])
        assert complete_one_entry_consistent(m, 0, 2) == pytest.approx(6.0, rel=1e-12)

    def test_cycle_pattern_entries(self):
        m = validate(cases.CYCLE_PC_PLUS)
        assert complete_one_entry_consistent(m, 0, 2) == pytest.approx(2 / 3, rel=1e-9)
        assert complete_one_entry_consistent(m, 1, 3) == pytest.approx(5 / 3, rel=1e-9)

    def test_neighbor_disagreement(self):
        m = validate(cases.CYCLE_PCM)
        with pytest.raises(NeighborDisagreementError):
            complete_one_entry_consistent(m, 0, 2)

    def test_no_common_neighbor(self):
        m = validate([[1, 2, None], [0.5, 1, None], [None, None, 1]])
        with pytest.raises(NoCommonNeighborError):
            complete_one_entry_consistent(m, 0, 2)

    def test_specified_entry_rejected(self):
        with pytest.raises(EntrySpecifiedError):
            complete_one_entry_consistent(cases.five_partial(), 0, 1)


class TestCompleteConsistentChordal:
    def test_delete_and_recover(self):
        full = cases.consistent_matrix([1, 2, 4, 8])
        # keep the triangle {1,2,3} and the pendant edge {0,1}: chordal
        partial = full.without_entry(0, 2).without_entry(0, 3)
        done = complete_consistent_chordal(partial)
        assert rel_diff(done.entries, full.entries) <= 1e-12
        assert is_consistent(done)

    def test_two_consistent_blocks_joined(self):
        raw = [
            [1, 2, None, None],
            [0.5, 1, None, None],
            [None, None, 1, 5],
            [None, None, 0.2, 1],
        ]
        done = complete_consistent_chordal(validate(raw))
        assert is_consistent(done)
        # unit-scale join: the (block-first, block-first) cross entry is 1
        assert done.entries[0, 2] == pytest.approx(1.0)

    def test_non_chordal_component_rejected(self):
        with pytest.raises(ComponentNotChordalError) as exc:
            complete_consistent_chordal(validate(cases.CYCLE_PCM))
        assert sorted(exc.value.cycle) == [0, 1, 2, 3]

    def test_inconsistent_triads_rejected(self):
        with pytest.raises(NotPCMError):
            complete_consistent_chordal(cases.five_partial())

    def test_ordering_independence(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 8))
            full = cases.consistent_matrix(cases.random_weights(rng, n))
            g = cases.random_connected_chordal_graph(rng, n, min_missing=2)
            partial = cases.mask_to_graph(full, g)
            a = complete_consistent_chordal(partial)
            b = complete_consistent_chordal(partial, lowest_first=True)
            assert rel_diff(a.entries, b.entries) <= 1e-10
            assert rel_diff(a.entries, full.entries) <= 1e-9


class TestCompleteConsistentPcPlus:
    def test_cycle_pattern(self):
        done = complete_consistent_pc_plus(validate(cases.CYCLE_PC_PLUS))
        assert done.entries[0, 2] == pytest.approx(2 / 3, rel=1e-9)
        assert done.entries[1, 3] == pytest.approx(5 / 3, rel=1e-9)
        assert is_consistent(done)

    def test_tree_pattern_always_completes(self, rng):
        g = SpecGraph.from_edges(6, cases.random_tree_edges(rng, 6))
        partial = cases.prm_on_graph(rng, g)
        done = complete_consistent_pc_plus(partial)
        assert is_consistent(done)
        specified = partial.mask & ~np.eye(6, dtype=bool)
        assert np.allclose(
            done.entries[specified], partial.entries[specified], rtol=1e-12
        )

    def test_non_chordal_pc_plus_four_cycle(self):
        raw = [
            [1, 2, None, 24],
            [0.5, 1, 3, None],
            [None, 1 / 3, 1, 4],
            [1 / 24, None, 0.25, 1],
        ]
        done = complete_consistent_pc_plus(validate(raw))
        assert done.entries[0, 2] == pytest.approx(6.0, rel=1e-9)
        assert done.entries[1, 3] == pytest.approx(12.0, rel=1e-9)

    def test_violating_input_rejected(self):
        with pytest.raises(NotPCPlusError) as exc:
            complete_consistent_pc_plus(validate(cases.CYCLE_PCM))
        assert exc.value.edge == (2, 3)


class TestJoinBlocks:
    def test_consistent_blocks_stay_consistent(self, rng):
        a = cases.consistent_matrix(cases.random_weights(rng, 3)).to_complete()
        b = cases.consistent_matrix(cases.random_weights(rng, 4)).to_complete()
        for k in (0.1, 1.0, 7.0):
            assert is_consistent(join_blocks(a, b, 1, 2, k))

    def test_one_by_one_blocks(self):
        one = validate([[1]]).to_complete()
        r = join_blocks(one, one, 0, 0, 5.0)
        assert r.entries[0, 1] == pytest.approx(5.0)
        assert r.entries[1, 0] == pytest.approx(0.2)
        assert mt(r) == 1.0

    def test_measure_is_max_of_blocks(self, rng):
        for _ in range(20):
            a = cases.random_prm(rng, 4, p=1.0).to_complete()
            b = cases.random_prm(rng, 3, p=1.0).to_complete()
            u = int(rng.integers(0, 4))
            v = int(rng.integers(0, 3))
            k = float(cases.log_uniform(rng, 0.2, 5.0))
            r = join_blocks(a, b, u, v, k)
            assert mt(r) == pytest.approx(max(mt(a), mt(b)), rel=1e-9)

    def test_mixed_triads_collapse_to_block_triads(self, rng):
        a = cases.random_prm(rng, 4, p=1.0).to_complete()
        b = cases.random_prm(rng, 3, p=1.0).to_complete()
        r = join_blocks(a, b, 2, 1, 3.0)
        block_products = {1.0}
        for block in (a, b):
            for t in specified_triads(block):
                block_products.update((t.value, t.reciprocal))
        for t in specified_triads(r):
            in_a = sum(v < a.n for v in (t.i, t.j, t.k))
            if in_a in (1, 2):  # mixed triad
                assert any(
                    abs(t.value / p - 1.0) <= 1e-9 for p in block_products
                ), f"mixed triad {t} not found among block products"

    def test_bad_arguments(self, rng):
        a = cases.consistent_matrix([1, 2]).to_complete()
        with pytest.raises(IndexError):
            join_blocks(a, a, 5, 0)
        with pytest.raises(IndexError):
            join_blocks(a, a, 0, -1)
        for k in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                join_blocks(a, a, 0, 0, k=k)


class TestFeasibleInterval:
    def test_collapses_for_consistent_context(self, rng):
        full = cases.consistent_matrix(cases.random_weights(rng, 5))
        m = full.without_entry(1, 3)
        fi = feasible_interval(m, 1, 3)
        forced = float(full.entries[1, 3])
        assert fi.lo == pytest.approx(forced, rel=1e-9)
        assert fi.hi == pytest.approx(forced, rel=1e-9)
        assert fi.minimax == pytest.approx(forced, rel=1e-9)

    def test_unconstrained_sentinel(self):
        m = validate([[1, 2, None], [0.5, 1, None], [None, None, 1]])
        fi = feasible_interval(m, 0, 2)
        assert fi.unconstrained
        assert fi.lo == 0.0 and math.isinf(fi.hi) and fi.minimax == 1.0
        assert fi.minimax_value == 1.0

    def test_specified_entry_rejected(self):
        with pytest.raises(EntrySpecifiedError):
            feasible_interval(cases.five_partial(), 2, 3)

    def test_endpoints_exact_outside_increases(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 8))
            prm = cases.random_chordal_prm(rng, n, min_missing=1)
            i, k = chordal_ordering(SpecGraph.from_matrix(prm))[0]
            fi = feasible_interval(prm, i, k)
            base = mt(prm)
            for x in (fi.lo, fi.hi, fi.minimax):
                assert mt(prm.with_entry(i, k, x)) <= base * (1 + 1e-9)
            for x in (fi.lo * (1 - 1e-6), fi.hi * (1 + 1e-6)):
                assert mt(prm.with_entry(i, k, x)) > base * (1 + 1e-8)

    def test_minimax_point_minimizes_new_products(self):
        # grid search over the new oriented products around the interval
        ts = triad_sets_for_entry(cases.five_partial(), 1, 4)
        fi = feasible_interval(cases.five_partial(), 1, 4)
        xs = np.geomspace(fi.lo / 4, fi.hi * 4, 4001)
        worst = np.array(
            [max(v for _, v in ts.c0_products(float(x))) for x in xs]
        )
        best = float(xs[np.argmin(worst)])
        assert best == pytest.approx(fi.minimax, rel=2e-3)
        assert float(worst.min()) == pytest.approx(fi.minimax_value, rel=2e-3)


class TestCompleteMtPreserving:
    def test_five_by_five_minimax_values(self):
        report = complete_mt_preserving(cases.five_partial())
        assert [s.edge for s in report.steps] == [(1, 4), (0, 4)]
        assert report.steps[0].value == pytest.approx(cases.SQRT6 / 6, rel=1e-9)
        assert report.steps[1].value == pytest.approx(
            math.sqrt(cases.SQRT6 / 2), rel=1e-9
        )
        assert mt(report.result) == pytest.approx(4.0, rel=1e-12)

    def test_pcm_input_gives_consistent_result_any_selection(self, rng):
        full = cases.consistent_matrix(cases.random_weights(rng, 6))
        g = cases.random_connected_chordal_graph(rng, 6, min_missing=2)
        partial = cases.mask_to_graph(full, g)
        for selection in ("minimax", "midpoint", "lo", "hi"):
            result = complete_mt_preserving(partial, selection=selection).result
            assert is_consistent(result)

    def test_tree_pattern_completes_consistently(self, rng):
        g = SpecGraph.from_edges(6, cases.random_tree_edges(rng, 6))
        partial = cases.prm_on_graph(rng, g)
        report = complete_mt_preserving(partial)
        assert mt(report.result) == pytest.approx(1.0, rel=1e-9)
        assert is_consistent(report.result)

    def test_non_chordal_rejected_with_witness(self):
        with pytest.raises(ComponentNotChordalError) as exc:
            complete_mt_preserving(validate(cases.CYCLE_PCM))
        assert len(exc.value.cycle) == 4

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            complete_mt_preserving(cases.five_partial(), selection="median")

    def test_all_selections_preserve_measure(self, rng):
        for _ in range(15):
            prm = cases.random_chordal_prm(rng, int(rng.integers(4, 8)), min_missing=1)
            base = mt(prm)
            for selection in ("minimax", "midpoint", "lo", "hi"):
                report = complete_mt_preserving(prm, selection=selection)
                assert mt(report.result) == pytest.approx(base, rel=1e-9)
                for step in report.steps:
                    assert step.mt_after <= step.mt_before * (1 + 1e-9)

    def test_disconnected_components_joined(self, rng):
        prm = cases.random_two_component_chordal_prm(rng)
        report = complete_mt_preserving(prm)
        assert report.joins and report.joins[0].scale == 1.0
        assert mt(report.result) == pytest.approx(mt(prm), rel=1e-9)
        assert report.result.is_complete()

    def test_measure_invariant_under_relabeling(self, rng):
        # The filled values depend on the fill order (hence on labels), but
        # the preserved measure never does.
        for _ in range(10):
            n = int(rng.integers(4, 8))
            prm = cases.random_chordal_prm(rng, n, min_missing=1)
            perm = rng.permutation(n)
            relabeled = np.full((n, n), np.nan)
            for i in range(n):
                for j in range(n):
                    if prm.mask[i, j]:
                        relabeled[perm[i], perm[j]] = prm.entries[i, j]
            r1 = complete_mt_preserving(prm).result
            r2 = complete_mt_preserving(validate(relabeled)).result
            assert mt(r2) == pytest.approx(mt(r1), rel=1e-9)

    def test_unique_completion_is_permutation_equivariant(self, rng):
        # With consistent data the completion is unique, so relabeling
        # commutes with completing.
        full = cases.consistent_matrix(cases.random_weights(rng, 5))
        g = cases.random_connected_chordal_graph(rng, 5, min_missing=2)
        prm = cases.mask_to_graph(full, g)
        perm = rng.permutation(5)
        relabeled = np.full((5, 5), np.nan)
        for i in range(5):
            for j in range(5):
                if prm.mask[i, j]:
                    relabeled[perm[i], perm[j]] = prm.entries[i, j]
        r1 = complete_mt_preserving(prm).result
        r2 = complete_mt_preserving(validate(relabeled)).result
        back = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                back[i, j] = r2.entries[perm[i], perm[j]]
        assert rel_diff(back, r1.entries) <= 1e-9
