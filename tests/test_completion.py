import math
import re
from dataclasses import astuple
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cases
from oracle import (
    NeighborDisagreementError,
    NoCommonNeighborError,
    NotPCMError,
    complete_consistent_chordal,
    complete_one_entry_consistent,
    specified_triads,
)
from triadcomplete import (
    DEFAULT_TOL,
    SpecGraph,
    Tolerances,
    chordal_ordering,
    complete_consistent_pc_plus,
    complete_mt_preserving,
    completion,
    connected_components,
    feasible_interval,
    is_pc_plus,
    is_pcm,
    join_blocks,
    mt,
    parse_matrix,
    reduce,
    tree_weights,
    validate,
)
from triadcomplete.completion import SELECTIONS, FeasibleInterval, select_value
from triadcomplete.measures import triad_scan
from triadcomplete.reduction import EDGE_RULES
from triadcomplete.errors import (
    ComponentNotChordalError,
    EntrySpecifiedError,
    MatrixError,
    NotPCPlusError,
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

    def test_returns_the_smallest_neighbors_product(self):
        # Neighbors 2, 3 and 4 (one-based) give 6, 6 (1 + 4e-10) and
        # 6 (1 - 3e-10), which agree within tol.cons; the value is the first.
        raw = np.full((5, 5), np.nan)
        np.fill_diagonal(raw, 1.0)
        raw[0, 1:4] = 2.0, 3.0, 1.5
        raw[1:4, 4] = 3.0, 2.0 * (1 + 4e-10), 4.0 * (1 - 3e-10)
        m = validate(raw)
        products = [float(raw[0, j] * raw[j, 4]) for j in (1, 2, 3)]
        assert products[0] == 6.0 and len(set(products)) == 3
        assert complete_one_entry_consistent(m, 0, 4) == 6.0
        assert complete_one_entry_consistent(m, 4, 0) == 6.0


class TestCompleteConsistentChordal:
    def test_delete_and_recover(self):
        full = cases.consistent_matrix([1, 2, 4, 8])
        # keep the triangle {1,2,3} and the pendant edge {0,1}: chordal
        partial = full.without_entry(0, 2).without_entry(0, 3)
        done = complete_consistent_chordal(partial)
        assert rel_diff(done.entries, full.entries) <= 1e-12
        assert is_pcm(done)

    def test_two_consistent_blocks_joined(self):
        raw = [
            [1, 2, None, None],
            [0.5, 1, None, None],
            [None, None, 1, 5],
            [None, None, 0.2, 1],
        ]
        done = complete_consistent_chordal(validate(raw))
        assert is_pcm(done)
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
            # A relabelled copy is completed along another order; map it back.
            perm = rng.permutation(n)
            b = complete_consistent_chordal(cases.permuted(partial, perm)).entries[np.ix_(perm, perm)]
            assert rel_diff(a.entries, b) <= 1e-10
            assert rel_diff(a.entries, full.entries) <= 1e-9


class TestCompleteConsistentPcPlus:
    def test_cycle_pattern(self):
        done = complete_consistent_pc_plus(validate(cases.CYCLE_PC_PLUS))
        assert done.entries[0, 2] == pytest.approx(2 / 3, rel=1e-9)
        assert done.entries[1, 3] == pytest.approx(5 / 3, rel=1e-9)
        assert is_pcm(done)

    def test_tree_pattern_always_completes(self, rng):
        g = SpecGraph.from_edges(6, cases.random_tree_edges(rng, 6))
        partial = cases.prm_on_graph(rng, g)
        done = complete_consistent_pc_plus(partial)
        assert is_pcm(done)
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

    def test_witness_is_the_is_pc_plus_edge(self, rng):
        # Components in order, edges in combinations order: the first
        # violation found is the same edge whichever function looks.
        for _ in range(30):
            m = cases.random_prm(rng, int(rng.integers(3, 9)), p=0.4)
            ok, witness = is_pc_plus(m)
            if ok:
                continue
            with pytest.raises(NotPCPlusError) as exc:
                complete_consistent_pc_plus(m)
            assert exc.value.edge == witness


    def test_equals_pair_loop_bit_for_bit(self, rng):
        # The loop the block fills replace: w[i] / w[j] per missing pair with
        # its mirror as 1.0 / value, then each join cell by cell.
        def pair_loop(m, scale):
            entries, mask = np.array(m.entries), np.array(m.mask)
            comps = connected_components(SpecGraph.from_matrix(m))
            for comp in comps:
                w = tree_weights(m, comp)
                for i, j in combinations(comp, 2):
                    if not mask[i, j]:
                        value = w[i] / w[j]
                        entries[i, j], entries[j, i] = value, 1.0 / value
            merged = list(comps[0])
            for comp in comps[1:]:
                r, s = merged[0], comp[0]
                for i in merged:
                    for j in comp:
                        value = scale * float(entries[i, r]) * float(entries[s, j])
                        entries[i, j], entries[j, i] = value, 1.0 / value
                merged = sorted(merged + list(comp))
            return entries

        for _ in range(12):
            n = int(rng.integers(4, 14))
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.25]
            g = SpecGraph.from_edges(n, pairs)
            m = cases.mask_to_graph(cases.consistent_matrix(cases.random_weights(rng, n)), g)
            scale = float(cases.log_uniform(rng, 1 / 9, 9))
            result = complete_consistent_pc_plus(m, join_scale=scale)
            assert result.entries.tobytes() == pair_loop(m, scale).tobytes()

    def test_out_of_range_fill_names_the_first_pair(self):
        # Pairs (3, 4), (3, 6), (4, 5) and (5, 6) leave double range; the
        # first in combinations order is named.
        w = [1.0, 1.0, 1e-200, 1e200, 1e-200, 1e200]
        raw = np.full((6, 6), np.nan)
        raw[0, 1:] = [w[0] / x for x in w[1:]]
        message = re.escape("entry (3, 4): filled value 0.0 is out of range")
        with pytest.raises(MatrixError, match=message):
            complete_consistent_pc_plus(validate(raw))


class TestDiagonalSimilarity:
    """D A D^-1 with D a diagonal of powers of two scales every product exactly.

    So MT and the PC+ verdict are bitwise unchanged, and the consistent
    completion of the scaled data is the scaled completion.  The block join
    is anchored at each component's first vertex; D takes one power on
    those vertices, where the join's free scale would otherwise move.  The
    same holds for a minimax fill and for a reduce: each filled value
    (i, k) scales by exactly d_i / d_k, and every measure keeps its bits.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 64),
        parts=st.integers(1, 2),
        perturb=st.booleans(),
    )
    def test_scaled_input_scales_the_completion(self, seed, n, parts, perturb):
        rng = np.random.default_rng(seed)
        g = cases.random_sparse_graph(rng, n, parts)
        m = cases.mask_to_graph(cases.consistent_matrix(cases.random_weights(rng, n)), g)
        if perturb:  # breaks PC+ when the edge lies on a cycle
            i, j = sorted(g.edges)[int(rng.integers(len(g.edges)))]
            m = m.with_entry(i, j, float(m.entries[i, j]) * 1.5)
        powers = rng.integers(-60, 61, n)
        for comp in m.graph.components:
            powers[comp[0]] = powers[0]
        d = np.ldexp(1.0, powers)
        scaled = validate(m.entries * d[:, None] / d)
        assert triad_scan(scaled).mt == triad_scan(m).mt
        verdict = is_pc_plus(m)
        assert is_pc_plus(scaled) == verdict
        if verdict[0]:
            expected = complete_consistent_pc_plus(m).entries * d[:, None] / d
            assert complete_consistent_pc_plus(scaled).entries.tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 64))
    def test_scaled_input_scales_the_minimax_fill(self, seed, n):
        rng = np.random.default_rng(seed)
        m = cases.prm_on_graph(rng, cases.clique_attached_graph(rng, n))
        d = np.ldexp(1.0, rng.integers(-60, 61, n))
        report = complete_mt_preserving(m)
        scaled = complete_mt_preserving(validate(m.entries * d[:, None] / d))
        assert len(scaled.steps) == len(report.steps)
        for step, got in zip(report.steps, scaled.steps):
            i, k = step.edge
            assert (got.edge, got.interval.mt_context, got.mt_after) == (
                step.edge, step.interval.mt_context, step.mt_after)
            assert got.value == step.value * d[i] / d[k]
        expected = report.result.entries * d[:, None] / d
        assert scaled.result.entries.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 39),
        edge_rule=st.sampled_from(EDGE_RULES),
    )
    def test_scaled_input_scales_the_reduction(self, seed, n, edge_rule):
        rng = np.random.default_rng(seed)
        m = cases.random_prm(rng, n, p=1.0).to_complete()
        d = np.ldexp(1.0, rng.integers(-60, 61, n))
        trace = reduce(m, max_steps=4, edge_rule=edge_rule)
        scaled = reduce(validate(m.entries * d[:, None] / d).to_complete(), max_steps=4,
                        edge_rule=edge_rule)
        assert (scaled.stop_reason, scaled.mt_initial) == (trace.stop_reason, trace.mt_initial)
        assert len(scaled.steps) == len(trace.steps)
        for step, got in zip(trace.steps, scaled.steps):
            i, k = step.edge
            assert (got.edge, got.tie, got.mt_before, got.mt_after) == (
                step.edge, step.tie, step.mt_before, step.mt_after)
            assert got.interval.mt_context == step.interval.mt_context
            assert got.new_value == step.new_value * d[i] / d[k]
        expected = trace.result.entries * d[:, None] / d
        assert scaled.result.entries.tobytes() == expected.tobytes()


class TestJoinBlocks:
    def test_consistent_blocks_stay_consistent(self, rng):
        a = cases.consistent_matrix(cases.random_weights(rng, 3)).to_complete()
        b = cases.consistent_matrix(cases.random_weights(rng, 4)).to_complete()
        for k in (0.1, 1.0, 7.0):
            assert is_pcm(join_blocks(a, b, 1, 2, k))

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
            for *_, v in specified_triads(block):
                block_products.update((v, 1.0 / v))
        for t in specified_triads(r):
            in_a = sum(x < a.n for x in t[:3])
            if in_a in (1, 2):  # mixed triad
                assert any(
                    abs(t[3] / p - 1.0) <= 1e-9 for p in block_products
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
        assert cases.minimax_value(fi) == 1.0

    def test_sentinel_selects_one_and_an_unknown_rule_is_refused(self):
        sentinel = FeasibleInterval.of(None, None, 2.0)
        assert [select_value(sentinel, s) for s in SELECTIONS] == [1.0] * len(SELECTIONS)
        with pytest.raises(ValueError, match="unknown selection rule 'median'"):
            select_value(FeasibleInterval(0.5, 2.0, 1.0, 2.0), "median")

    def test_specified_entry_rejected(self):
        with pytest.raises(EntrySpecifiedError):
            feasible_interval(cases.five_partial(), 2, 3)

    def test_underflowing_products_still_constrain(self):
        # a[1,2] * a[2,3] underflows to 0: entry (1, 3) has a common neighbor,
        # so it is refused by name, not filled with 1.0 as if nothing
        # constrained it, by the library and the engine alike.
        m = validate([[1, 1e-200, None], [1e200, 1, 1e-200], [None, 1e200, 1]])
        with pytest.raises(MatrixError, match=r"entry \(1, 3\): product through 2"):
            feasible_interval(m, 0, 2)
        with pytest.raises(MatrixError, match=r"entry \(1, 3\)"):
            complete_mt_preserving(m)

    def test_subnormal_product_refused(self):
        # The product through vertex 1 (one-based) of entry (2, 5) is the
        # subnormal 1e-315: the library refuses it with the fill step's message.
        m, _ = parse_matrix(cases.SUBNORMAL_PRODUCT_TEXT)
        message = "entry (2, 5): product through 1 is out of range"
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            feasible_interval(m, 1, 4)

    @pytest.mark.parametrize("i, k", [(-4, 2), (0, -2), (-1, 1), (0, 9)])
    def test_index_outside_matrix_rejected(self, i, k):
        # A negative index would wrap to another entry; each is refused by name,
        # as with_entry refuses it.
        message = f"entry ({i + 1}, {k + 1}) is outside the 4x4 matrix"
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            feasible_interval(validate(cases.CYCLE_PCM), i, k)

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
        m = cases.five_partial()
        fi = feasible_interval(m, 1, 4)
        xs = np.geomspace(fi.lo / 4, fi.hi * 4, 4001)
        worst = np.array(
            [max(v for _, v in cases.c0_products(m, 1, 4, float(x))) for x in xs]
        )
        best = float(xs[np.argmin(worst)])
        assert best == pytest.approx(fi.minimax, rel=2e-3)
        assert float(worst.min()) == pytest.approx(cases.minimax_value(fi), rel=2e-3)


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
            assert is_pcm(result)

    def test_tree_pattern_completes_consistently(self, rng):
        g = SpecGraph.from_edges(6, cases.random_tree_edges(rng, 6))
        partial = cases.prm_on_graph(rng, g)
        report = complete_mt_preserving(partial)
        assert mt(report.result) == pytest.approx(1.0, rel=1e-9)
        assert is_pcm(report.result)

    def test_non_chordal_rejected_with_witness(self):
        with pytest.raises(ComponentNotChordalError) as exc:
            complete_mt_preserving(validate(cases.CYCLE_PCM))
        assert len(exc.value.cycle) == 4

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            complete_mt_preserving(cases.five_partial(), selection="median")

    def test_midpoint_near_the_top_of_the_range(self):
        # lo + hi overflows; halving each end first does not.
        assert select_value(FeasibleInterval(1e308, 1.5e308, 1.2e308, 1.0), "midpoint") == 1.25e308
        assert select_value(FeasibleInterval(0.5, 4.0, 2.0, 2.0), "midpoint") == 2.25

    def test_all_selections_preserve_measure(self, rng):
        for _ in range(15):
            prm = cases.random_chordal_prm(rng, int(rng.integers(4, 8)), min_missing=1)
            base = mt(prm)
            for selection in ("minimax", "midpoint", "lo", "hi"):
                report = complete_mt_preserving(prm, selection=selection)
                assert mt(report.result) == pytest.approx(base, rel=1e-9)
                for step in report.steps:
                    assert step.mt_after <= step.interval.mt_context * (1 + 1e-9)

    def test_step_interval_equals_library_interval(self, rng):
        # Both call one interval helper, but each picks its own J and context:
        # the step from its running bitsets and the last step's mt_after, the
        # library from the matrix before that step.  They must pick the same,
        # so each step's interval is the library's, bit for bit.
        prms = [cases.prm_on_graph(rng, cases.clique_attached_graph(rng, int(rng.integers(3, 25))))
                for _ in range(6)]
        prms += [cases.random_chordal_prm(rng, int(rng.integers(4, 9)), min_missing=1)
                 for _ in range(6)]
        prms.append(cases.random_two_component_chordal_prm(rng))
        for prm in prms:
            for selection in SELECTIONS:
                current = prm
                for step in complete_mt_preserving(prm, selection=selection).steps:
                    want = feasible_interval(current, *step.edge)
                    assert [x.hex() for x in astuple(step.interval)] == [
                        x.hex() for x in astuple(want)
                    ]
                    current = current.with_entry(*step.edge, step.value)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        kind=st.sampled_from(("tree", "star", "clique-attached")),
    )
    @example(seed=361, n=8, kind="clique-attached")
    @example(seed=376, n=5, kind="clique-attached")
    @example(seed=751, n=7, kind="clique-attached")
    def test_extreme_magnitudes_return_or_raise_matrix_error(self, seed, n, kind):
        # Entries 10^U(-300, 300) drive the fill step's float arithmetic to
        # overflow, underflow and subnormal products: each run completes or
        # raises MatrixError, never a failed check or a division by zero.
        # The examples once failed the empty-interval check on a subnormal
        # product.
        rng = np.random.default_rng(seed)
        g = cases.graph_of_kind(rng, kind, n)
        raw = np.full((n, n), np.nan)
        np.fill_diagonal(raw, 1.0)
        for i, j in g.edges:
            raw[i, j] = 10.0 ** rng.uniform(-300, 300)
            raw[j, i] = 1.0 / raw[i, j]
        m = validate(raw)
        for selection in SELECTIONS:
            try:
                complete_mt_preserving(m, selection=selection)
            except MatrixError:
                pass

    def test_after_fill_check_equals_full_rescan(self, rng):
        # Each step's measure comes from a scan of the filled entry's clique;
        # replaying the fills, a full rescan must give the same bits.
        prms = [
            cases.random_chordal_prm(rng, int(rng.integers(4, 11)), min_missing=1)
            for _ in range(12)
        ]
        prms += [cases.random_two_component_chordal_prm(rng) for _ in range(3)]
        for prm in prms:
            for selection in SELECTIONS:
                current = prm
                for step in complete_mt_preserving(prm, selection=selection).steps:
                    current = current.with_entry(*step.edge, step.value)
                    assert mt(current) == step.mt_after

    def test_chord_forcing_check_fires(self, monkeypatch):
        # The 4-cycle's missing entry (0, 2) has common neighbors 1 and 3, not adjacent.
        m = validate(cases.CYCLE_PCM)
        monkeypatch.setattr(completion, "chordal_ordering", lambda g: ((0, 2), (1, 3)))
        with pytest.raises(AssertionError, match=re.escape("common neighbors of (0, 2) are not")):
            complete_mt_preserving(m)

    def test_empty_interval_check_fires(self, monkeypatch):
        # Against mt = 1 the constraining products of entry (1, 4) leave no value.
        monkeypatch.setattr(completion, "mt", lambda m: 1.0)
        with pytest.raises(AssertionError, match=re.escape("empty feasible interval at (1, 4)")):
            complete_mt_preserving(cases.five_partial())

    def test_measure_increase_check_fires(self, monkeypatch):
        monkeypatch.setattr(completion, "select_value", lambda interval, selection: 2 * interval.hi)
        with pytest.raises(AssertionError, match=re.escape("measure increased at (1, 4): 4.0 -> ")):
            complete_mt_preserving(cases.five_partial())

    @staticmethod
    def fill_1_4(ratio, tol):
        # Vertices 2 and 3 are adjacent and both neighbours of 1 and 4, so
        # filling (1, 4) against mt = 1 meets the products 1 and ``ratio``.
        m = validate([[1, 1, 1, None], [None, 1, 1, 1], [None, None, 1, ratio], [None] * 3 + [1]])
        return completion._fill_step(m.entries.tolist(), m.entries.T.tolist(), list(m.graph.bits),
                                     0, 3, 1.0, "minimax", tol)

    def test_empty_interval_check_at_its_threshold(self):
        # The interval [ratio, 1] counts as empty only past the comparison tolerance.
        tol = Tolerances(cmp=1e-4)
        assert self.fill_1_4(1.0 + tol.cmp / 2, tol).edge == (0, 3)
        with pytest.raises(AssertionError, match=re.escape("empty feasible interval at (0, 3)")):
            self.fill_1_4(1.0 + 2 * tol.cmp, tol)

    def test_measure_increase_check_at_its_threshold(self, monkeypatch):
        # New triads above mt = 1 count as a raised measure only past the tolerance.
        tol = Tolerances(cmp=1e-4)
        monkeypatch.setattr(completion, "new_triads_mt", lambda *args: 1.0 + tol.cmp / 2)
        assert self.fill_1_4(1.0, tol).mt_after == 1.0 + tol.cmp / 2
        monkeypatch.setattr(completion, "new_triads_mt", lambda *args: 1.0 + 2 * tol.cmp)
        with pytest.raises(AssertionError, match=re.escape("measure increased at (0, 3)")):
            self.fill_1_4(1.0, tol)

    def test_out_of_range_join_names_the_first_cell(self):
        # At scale 1e308 the cross cells (1, 4), (2, 3) and (2, 4) overflow;
        # the first, row by row, is named.
        raw = [[1, 1 / 4, None, None], [4, 1, None, None], [None, None, 1, 4], [None, None, 1 / 4, 1]]
        message = re.escape("entry (1, 4): filled value inf is out of range")
        with pytest.raises(MatrixError, match=message):
            complete_mt_preserving(validate(raw), join_scale=1e308)

    def test_disconnected_components_joined(self, rng):
        prm = cases.random_two_component_chordal_prm(rng)
        report = complete_mt_preserving(prm)
        assert report.joins and report.joins[0].scale == 1.0
        assert mt(report.result) == pytest.approx(mt(prm), rel=1e-9)
        assert report.result.is_complete()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 64),
        parts=st.integers(1, 2),
        selection=st.sampled_from(SELECTIONS),
    )
    def test_measure_invariant_under_relabeling(self, seed, n, parts, selection):
        # The filled values depend on the fill order (hence on labels), but
        # no completion of the relabelled data raises the input's measure.
        rng = np.random.default_rng(seed)
        g = cases.disjoint_union(rng, n, ("clique-attached",) * parts)
        prm = cases.prm_on_graph(rng, g)
        base = triad_scan(prm).mt
        relabelled = cases.permuted(prm, rng.permutation(n))
        result = complete_mt_preserving(relabelled, selection=selection).result
        assert triad_scan(result).mt <= base * (1.0 + DEFAULT_TOL.cmp)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 64), parts=st.integers(1, 2))
    def test_unique_completion_is_permutation_equivariant(self, seed, n, parts):
        # With consistent data the completion is unique per component, so
        # relabelling commutes with completing there.  The join's free scale
        # depends on the labels, so the cross-component entries are left out.
        rng = np.random.default_rng(seed)
        g = cases.disjoint_union(rng, n, ("clique-attached",) * parts)
        prm = cases.mask_to_graph(cases.consistent_matrix(cases.random_weights(rng, n)), g)
        perm = rng.permutation(n)
        done = complete_mt_preserving(prm).result.entries
        back = complete_mt_preserving(cases.permuted(prm, perm)).result.entries[np.ix_(perm, perm)]
        for comp in g.components:
            block = np.ix_(comp, comp)
            assert rel_diff(back[block], done[block]) <= 1e-9
