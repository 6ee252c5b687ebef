import math
import re
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
import oracle
from oracle import specified_triads
from triadcomplete import (
    DEFAULT_TOL,
    PartialReciprocalMatrix,
    SpecGraph,
    Tolerances,
    complete_mt_preserving,
    is_pc_plus,
    is_pcm,
    mt,
    tree_weights,
    connected_components,
    validate,
)
from triadcomplete.errors import EntrySpecifiedError, MatrixError
from triadcomplete.completion import FeasibleInterval
from triadcomplete.measures import TriadTables, mt_pass, new_triads_mt, triad_scan

weight_vectors = st.lists(
    st.floats(0.2, 5.0, allow_nan=False), min_size=3, max_size=6
).map(np.array)


def tree_prm(rng, n):
    from triadcomplete import SpecGraph

    return cases.prm_on_graph(rng, SpecGraph.from_edges(n, cases.random_tree_edges(rng, n)))


class TestSpecifiedTriads:
    def test_tree_pattern_has_none(self, rng):
        assert specified_triads(tree_prm(rng, 6)) == []

    def test_sub_four_triangles(self):
        triads = specified_triads(cases.sub_four())
        assert [(t.i, t.j, t.k) for t in triads] == [(0, 1, 2), (1, 2, 3)]
        assert triads[0].value == pytest.approx(4 / 3, rel=1e-12)
        assert triads[1].value == pytest.approx(1 / 2, rel=1e-12)

    def test_complete_four_by_four(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 4))
        assert len(specified_triads(m)) == 4

    def test_orientations(self):
        t = specified_triads(cases.sub_four())[1]
        assert t.reciprocal == pytest.approx(2.0)
        assert t.max_value == pytest.approx(2.0)
        assert t.worst_orientation() == ((3, 2, 1), pytest.approx(2.0))


class TestMt:
    def test_sub_four(self):
        assert mt(cases.sub_four()) == pytest.approx(2.0, rel=1e-12)

    def test_five_with_first_fill(self):
        b = cases.five_partial().with_entry(1, 4, cases.SQRT6 / 6)
        assert mt(b) == pytest.approx(4.0, rel=1e-12)

    def test_consistent_is_one(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 5))
        assert mt(m) == pytest.approx(1.0, rel=1e-12)

    def test_no_triads_is_one(self, rng):
        assert mt(tree_prm(rng, 5)) == 1.0

    def test_at_least_one(self, rng):
        for _ in range(50):
            assert mt(cases.random_prm(rng, int(rng.integers(1, 8)))) >= 1.0

    def test_permutation_and_transpose_invariance(self, rng):
        for _ in range(20):
            m = cases.random_prm(rng, 6)
            perm = rng.permutation(6)
            permuted = np.full((6, 6), np.nan)
            for i in range(6):
                for j in range(6):
                    if m.mask[i, j]:
                        permuted[perm[i], perm[j]] = m.entries[i, j]
            assert mt(validate(permuted)) == pytest.approx(mt(m), rel=1e-12)
            transposed = np.where(m.mask, m.entries.T, np.nan)
            assert mt(validate(transposed)) == pytest.approx(mt(m), rel=1e-12)


class TestIsPcm:
    def test_cycle_pattern_is_pcm(self):
        assert is_pcm(validate(cases.CYCLE_PCM))

    def test_five_partial_is_not(self):
        assert not is_pcm(cases.five_partial())

    def test_tree_pattern_vacuously_pcm(self, rng):
        assert is_pcm(tree_prm(rng, 6))

    def test_equivalent_to_all_triads_near_one(self, rng):
        for _ in range(40):
            m = cases.random_prm(rng, int(rng.integers(3, 7)))
            triads = specified_triads(m)
            all_one = all(abs(t.value - 1.0) <= 1e-9 for t in triads)
            assert is_pcm(m) == all_one


class TestIsPcPlus:
    def test_cycle_pattern_violates(self):
        ok, witness = is_pc_plus(validate(cases.CYCLE_PCM))
        assert not ok
        # BFS tree from vertex 0 takes edges (0,1), (0,3), (1,2); the
        # remaining specified edge closes the violating cycle.
        assert witness == (2, 3)

    def test_witness_cycle_product_differs_from_one(self):
        m = validate(cases.CYCLE_PCM)
        _, witness = is_pc_plus(m)
        products = dict(oracle.brute_cycle_products(m))
        violating = [p for cyc, p in products.items() if set(witness) <= set(cyc)]
        assert violating and all(abs(p - 1.0) > 1e-9 for p in violating)

    def test_verdict_kept_per_consistency_tolerance(self):
        # The cycle product is 5/6, so a loose tolerance passes PC+ and the
        # default fails it; each matrix keeps one verdict per tolerance.
        m, loose = validate(cases.CYCLE_PCM), Tolerances(cons=0.5)
        for _ in range(2):
            assert is_pc_plus(m, loose) == (True, None)
            assert is_pc_plus(m) == (False, (2, 3))

    def test_corrected_entry_restores_pc_plus(self):
        assert is_pc_plus(validate(cases.CYCLE_PC_PLUS)) == (True, None)

    def test_forest_pattern_vacuously_pc_plus(self, rng):
        assert is_pc_plus(tree_prm(rng, 6)) == (True, None)

    def test_pc_plus_implies_pcm(self, rng):
        for _ in range(30):
            m = cases.random_prm(rng, int(rng.integers(3, 7)), p=0.4)
            if is_pc_plus(m)[0]:
                assert is_pcm(m)

    def test_agrees_with_cycle_enumeration(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 7))
            m = cases.random_prm(rng, n, p=float(rng.uniform(0.3, 0.9)))
            brute = all(abs(p - 1.0) <= 1e-9 for _, p in oracle.brute_cycle_products(m))
            assert is_pc_plus(m)[0] == brute

    def test_witness_equals_pair_loop(self, rng):
        # The per-pair loop the vectorised comparison replaced: components
        # in order, then combinations order within each.
        def reference(m, tol=DEFAULT_TOL):
            for comp in connected_components(SpecGraph.from_matrix(m)):
                w = tree_weights(m, comp)
                for i, j in combinations(comp, 2):
                    if m.mask[i, j] and abs(float(m.entries[i, j]) * w[j] / w[i] - 1.0) > tol.cons:
                        return False, (i, j)
            return True, None

        for _ in range(150):
            n = int(rng.integers(2, 9))
            m = cases.random_prm(rng, n, p=float(rng.uniform(0.3, 0.9)))
            if rng.random() < 0.5:  # consistent data nudged around the tolerance
                full = cases.consistent_matrix(cases.random_weights(rng, n)).entries
                nudge = np.triu(1.0 + rng.choice([0.0, 5e-10, 2e-9], size=(n, n)), 1)
                nudged = np.where(nudge > 0, full * nudge, np.nan)
                m = validate(np.where(m.mask, nudged, np.nan))
            assert is_pc_plus(m) == reference(m)

    def test_masked_consistent_matrix_always_pc_plus(self, rng):
        for _ in range(20):
            full = cases.consistent_matrix(cases.random_weights(rng, 6))
            m = cases.random_prm(rng, 6)  # borrow its pattern
            masked = np.where(m.mask, full.entries, np.nan)
            assert is_pc_plus(validate(masked))[0]


class TestTreeWeights:
    def test_reproduces_tree_entries(self, rng):
        m = tree_prm(rng, 6)
        w = tree_weights(m, range(6))
        for i in range(6):
            for j in range(6):
                if i != j and m.mask[i, j]:
                    assert w[i] / w[j] == pytest.approx(float(m.entries[i, j]), rel=1e-12)


class TestTriadSetsForEntry:
    # The paper's S sets around one unspecified entry, from the reference
    # oracle.constraint_products; the library's interval is checked against
    # them in test_completion.py and test_acceptance.py.
    def test_five_by_five_second_row_entry(self):
        products = oracle.constraint_products(cases.five_partial(), 1, 4)
        assert [j for j, _ in products] == [2, 3]
        assert sorted(s for _, s in products) == pytest.approx([1 / 4, 2 / 3], rel=1e-12)

    def test_five_by_five_top_entry_after_fill(self):
        b = cases.five_partial().with_entry(1, 4, cases.SQRT6 / 6)
        products = oracle.constraint_products(b, 0, 4)
        assert sorted(s for _, s in products) == pytest.approx(
            [1 / 2, 1.0, cases.SQRT6], rel=1e-12
        )

    def test_no_common_neighbor_flagged(self):
        m = validate([[1, 2, None], [0.5, 1, None], [None, None, 1]])
        assert oracle.constraint_products(m, 0, 2) == []

    def test_specified_entry_rejected(self):
        with pytest.raises(EntrySpecifiedError):
            oracle.constraint_products(cases.five_partial(), 0, 1)

    def test_c0_products_pair_up(self):
        prods = dict(cases.c0_products(cases.five_partial(), 1, 4, 0.5))
        assert prods[(1, 2, 4)] == pytest.approx((2 / 3) / 0.5, rel=1e-12)
        assert prods[(4, 2, 1)] == pytest.approx(0.5 / (2 / 3), rel=1e-12)

    def test_spread_bound_on_single_missing_entry(self, rng):
        # With every other entry specified, any two constraining products
        # differ by at most the squared measure.
        for _ in range(60):
            n = int(rng.integers(4, 8))
            m = cases.random_prm(rng, n, p=1.0).without_entry(0, n - 1)
            s = [v for _, v in oracle.constraint_products(m, 0, n - 1)]
            bound = mt(m) ** 2 * min(s)
            assert max(s) <= bound * (1 + 1e-12)


class TestMinimax:
    # The minimax rule lives in FeasibleInterval.of, which the one interval
    # helper calls for the engine's step and the library's feasible_interval.
    @given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=4))
    def test_plain_root_unless_the_product_leaves_range(self, s):
        minimax = FeasibleInterval.of(min(s), max(s), 1.0).minimax
        hi, lo = max(s), min(s)
        if sys.float_info.min <= hi * lo < math.inf:
            assert minimax == math.sqrt(hi * lo)
        else:
            assert minimax == math.sqrt(hi) * math.sqrt(lo)
            assert 0.0 < minimax < math.inf

    def test_huge_products(self):
        assert FeasibleInterval.of(1e155, 1e155, 1.0).minimax == 1.0000000000000001e155

    def test_subnormal_products(self):
        # 1e-160 squared is subnormal: its root would be 9.99994433575849e-161.
        assert FeasibleInterval.of(1e-160, 1e-160, 1.0).minimax == 1e-160


class TestMaxTriadAndKoczkodaj:
    def test_consistent_ties(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 4))
        scan = triad_scan(m)
        assert scan.worst.max_value == pytest.approx(1.0) and scan.tie

    def test_unique_maximum(self):
        m = validate([[1, 2, 1], [0.5, 1, 2], [1, 0.5, 1]])
        scan = triad_scan(m)
        assert (scan.worst.i, scan.worst.j, scan.worst.k) == (0, 1, 2)
        assert scan.worst.max_value == pytest.approx(4.0) and not scan.tie

    def test_koczkodaj_values(self, rng):
        assert triad_scan(cases.consistent_matrix([1, 2, 3])).koczkodaj == pytest.approx(0.0)
        assert triad_scan(cases.sub_four()).koczkodaj == pytest.approx(0.5, rel=1e-12)
        assert triad_scan(cases.five_partial()).koczkodaj == pytest.approx(0.75, rel=1e-12)

    @given(weight_vectors)
    def test_koczkodaj_zero_iff_pcm(self, w):
        m = cases.consistent_matrix(w)
        assert triad_scan(m).koczkodaj == pytest.approx(0.0, abs=1e-9)


def enumerated_worst(m, tol=DEFAULT_TOL):
    """Worst triad, tie flag and count from the reference enumeration."""
    triads = specified_triads(m)
    if not triads:
        return None, False, 0
    peak = max(t.max_value for t in triads)
    close = [v for t in triads for v in (t.value, t.reciprocal) if abs(v / peak - 1.0) <= tol.cmp]
    worst = min(
        (t for t in triads if abs(t.max_value / peak - 1.0) <= tol.cmp),
        key=lambda t: (t.i, t.j, t.k),
    )
    return worst, len(close) >= 2, len(triads)


def grid_prm(rng, n):
    """Random partial PRM on the values 1/2, 1, 2, 4, so many products tie exactly."""
    raw = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                raw[i, j] = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
    return validate(raw)


class TestTriadScan:
    def assert_agrees(self, m, tol=DEFAULT_TOL):
        scan = triad_scan(m, tol)
        worst, tie, count = enumerated_worst(m, tol)
        assert scan.count == count
        assert scan.tie == tie
        if worst is None:
            assert scan.worst is None
        else:
            assert (scan.worst.i, scan.worst.j, scan.worst.k) == (worst.i, worst.j, worst.k)
            assert scan.worst.value.hex() == worst.value.hex()
        assert scan.mt == pytest.approx(oracle.brute_mt(m), rel=1e-12)

    def test_random_partial_matrices(self, rng):
        for n in range(1, 10):
            for _ in range(12):
                self.assert_agrees(cases.random_prm(rng, n, p=float(rng.uniform(0.2, 1.0))))
                self.assert_agrees(grid_prm(rng, n))
                self.assert_agrees(grid_prm(rng, n), Tolerances(cmp=0.6))

    def test_consistent_matrices_tie_everywhere(self, rng):
        for n in range(3, 10):
            m = cases.consistent_matrix(cases.random_weights(rng, n))
            self.assert_agrees(m)
            assert triad_scan(m).tie

    def test_complete_perturbed_matrices(self, rng):
        for n in range(3, 10):
            for _ in range(4):
                self.assert_agrees(cases.perturbed_consistent(rng, n)[0])

    def test_overflowing_product_names_the_triad(self):
        huge = validate([[1, 1e200, 1e-200], [None, 1, 1e200], [None, None, 1]])
        with pytest.raises(MatrixError, match=r"triad \(1, 2, 3\)"):
            triad_scan(huge)
        # A product that underflows to 0 has an infinite reciprocal; built
        # directly, so no other rotation of the triad overflows first.
        entries = np.ones((4, 4))
        entries[1, 2] = entries[2, 3] = 1e-200
        tiny = PartialReciprocalMatrix(entries)
        with pytest.raises(MatrixError, match=r"triad \(2, 3, 4\)"):
            triad_scan(tiny)


def scaled_prm(rng, g, shift):
    """Random entries on the pattern of ``g``, each scaled by 2**e with |e| <= shift."""
    raw = np.full((g.n, g.n), np.nan)
    for i, j in sorted(g.edges):
        raw[i, j] = float(cases.log_uniform(rng, 1 / 9, 9)) * 2.0 ** int(rng.integers(-shift, shift + 1))
    return validate(raw)


def tables_prm(rng, n, shift, tie_grid, missing):
    """Random entries scaled by 2**e, |e| <= shift, or a grid of ties; a ``missing`` share NaN."""
    if tie_grid:  # all ones but one entry: every triad through it ties at 4
        raw = np.ones((n, n))
        i, j = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        raw[i, j] = 4.0
    else:
        raw = cases.log_uniform(rng, 1 / 9, 9, (n, n))
        raw *= np.ldexp(1.0, rng.integers(-shift, shift + 1, (n, n)))
    raw[rng.random((n, n)) < missing] = np.nan
    raw[np.tril_indices(n)] = np.nan  # validate mirrors the upper triangle
    return validate(raw)


class TestTriadTables:
    @settings(max_examples=30)
    @given(
        n=st.integers(3, 64),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0, 8, 60]),
        tie_grid=st.booleans(),
        missing=st.sampled_from([0.0, 0.3]),
    )
    def test_updates_equal_a_fresh_scan(self, n, seed, shift, tie_grid, missing):
        # After each pair change, to a value or to NaN and back, the tables read
        # exactly what a rescan finds, and a cleared pair's mt is the rescan's.
        rng = np.random.default_rng(seed)
        m = tables_prm(rng, n, shift, tie_grid, missing)
        tables = TriadTables(np.array(m.entries))
        assert tables.scan() == triad_scan(m)
        for _ in range(12):
            a, b = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            before = np.array(tables.entries)
            cleared, context = tables.cleared(a, b)
            without = PartialReciprocalMatrix(before).without_entry(a, b)
            assert np.array_equal(cleared, without.entries, equal_nan=True)
            assert context == mt(without)
            assert np.array_equal(tables.entries, before, equal_nan=True)
            if rng.random() < 0.25:
                value = math.nan
            elif tie_grid:
                value = float(rng.choice([0.25, 1.0, 4.0]))
            else:
                value = float(cases.log_uniform(rng, 1 / 9, 9)) * 2.0 ** int(rng.integers(-shift, shift + 1))
            tables.set(a, b, value)
            now = PartialReciprocalMatrix(tables.entries)
            assert tables.scan() == triad_scan(now)
            assert tables.scan(Tolerances(cmp=0.6)) == triad_scan(now, Tolerances(cmp=0.6))

    @pytest.mark.parametrize("big", [1e200, 1e-200])
    def test_overflowing_change_raises_as_a_scan(self, big):
        # Setting (3, 5) closes {1, 3, 5} with a product of big**2; a rescan
        # meets it first at middle 1, which the update did not recompute.
        raw = np.ones((6, 6))
        raw[0, 2] = big
        raw[np.tril_indices(6)] = np.nan
        tables = TriadTables(np.array(validate(raw).entries))
        changed = np.array(tables.entries)
        changed[2, 4], changed[4, 2] = big, 1.0 / big
        with pytest.raises(MatrixError) as scan_error:
            triad_scan(PartialReciprocalMatrix(changed))
        assert str(scan_error.value) == "triad (1, 3, 5): 3-cycle product overflows"
        with pytest.raises(MatrixError, match=re.escape(str(scan_error.value))):
            tables.set(2, 4, big)


class TestMtPass:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 64),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0, 8, 60]),
        tie_grid=st.booleans(),
        missing=st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_equals_the_full_scan_bit_for_bit(self, n, seed, shift, tie_grid, missing):
        m = tables_prm(np.random.default_rng(seed), n, shift, tie_grid, missing)
        want = triad_scan(m).mt
        assert mt_pass(m).hex() == want.hex()
        assert mt(m).hex() == want.hex() and mt(m) is mt(m)  # one pass, kept on the matrix
        assert triad_scan(m).koczkodaj == 1.0 - 1.0 / want
        assert is_pcm(m) == triad_scan(m).pcm

    def test_a_vertex_with_no_specified_entry(self):
        # Built directly: vertex 2 has no specified entry, not even its diagonal,
        # so as a middle it forms no products at all.
        entries = np.full((4, 4), 2.0)
        entries[1, :] = entries[:, 1] = np.nan
        m = PartialReciprocalMatrix(entries)
        scan = triad_scan(m)
        assert scan.mt == mt_pass(m) == 8.0 and scan.count == 1
        assert (scan.worst.i, scan.worst.j, scan.worst.k) == (0, 2, 3)

    @pytest.mark.parametrize(
        "pair",
        [
            (1e200, 1e200),  # the product overflows
            (1e154, 1e154),  # 1e308: finite
            (1e-200, 1e-200),  # underflows to 0
            (1e-160, 1e-160),  # a subnormal 1e-320, whose reciprocal overflows
            (1e-154, 1e-154),  # a subnormal 1e-308, whose reciprocal is finite
        ],
    )
    def test_raises_exactly_when_the_scan_does(self, pair):
        # Built directly, so the reverse orientation of the triad stays at 1 and
        # only the one product leaves range.
        entries = np.ones((4, 4))
        entries[1, 2], entries[2, 3] = pair
        validated = validate([[1, pair[0], 1 / pair[1]], [None, 1, pair[1]], [None, None, 1]])
        for m in (PartialReciprocalMatrix(entries), validated):
            try:
                want = triad_scan(m).mt
            except MatrixError as scan_error:
                with pytest.raises(MatrixError) as pass_error:
                    mt_pass(m)
                assert str(pass_error.value) == str(scan_error)
            else:
                assert mt_pass(m).hex() == want.hex()
        with pytest.raises(MatrixError, match=r"triad \(1, 2, 3\)"):
            mt_pass(validate([[1, 1e200, 1e-200], [None, 1, 1e200], [None, None, 1]]))


class TestNewTriadsMt:
    @settings(max_examples=12)
    @given(
        n=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
        star=st.booleans(),
        shift=st.sampled_from([0, 8, 60]),
    )
    def test_running_max_equals_full_scan(self, n, seed, star, shift):
        # Replay the engine's fills; after each one the running maximum of the
        # kernel must be the filled matrix's mt, bit for bit.
        rng = np.random.default_rng(seed)
        g = cases.star_graph(n) if star else cases.clique_attached_graph(rng, n)
        m = scaled_prm(rng, g, shift)
        entries, mask = np.array(m.entries), np.array(m.mask)
        context = mt(m)
        for step in complete_mt_preserving(m).steps:
            i, k = step.edge
            js = np.flatnonzero(mask[i] & mask[k])
            entries[i, k], entries[k, i] = step.value, 1.0 / step.value
            mask[i, k] = mask[k, i] = True
            near = (entries[a, b].tolist() for a, b in ((i, js), (js, k), (k, js), (js, i)))
            context = max(context, new_triads_mt(entries, step.value, *near))
            assert context == mt(PartialReciprocalMatrix(entries))

    @pytest.mark.parametrize("big", [1e200, 1e-200])
    def test_overflow_names_the_triad(self, big):
        # Filling (2, 4) closes the triad {2, 4, 5}, whose product overflows
        # (or underflows to 0, whose reciprocal a Python float cannot take);
        # the triad {1, 2, 5} is finite.  The kernel gets Python floats, as
        # the engine passes them.
        raw = np.full((5, 5), np.nan)
        raw[0, 1], raw[0, 4], raw[1, 4], raw[3, 4] = 2.0, 3.0, big, 1 / big
        m = validate(raw)
        entries = np.array(m.entries)
        entries[1, 3] = entries[3, 1] = 1.0
        message = re.escape("triad (2, 4, 5): 3-cycle product overflows")
        near = ([float(entries[a, b])] for a, b in ((1, 4), (4, 3), (3, 4), (4, 1)))
        with pytest.raises(MatrixError, match=message):
            new_triads_mt(entries, 1.0, *near)


def rotations(cycle):
    return {cycle[r:] + cycle[:r] for r in range(3)}


class TestRelabellingAndTransposition:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 64),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0, 8, 60]),
        missing=st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_scan_is_invariant(self, n, seed, shift, missing):
        # P A P^T and A^T are built from the entries array itself: validate
        # would re-derive each mirror as 1/a and change bits.
        rng = np.random.default_rng(seed)
        scale = 2.0 ** rng.integers(-shift, shift + 1, (n, n))
        raw = cases.log_uniform(rng, 1 / 9, 9, (n, n)) * scale
        raw[rng.random((n, n)) < missing] = np.nan
        raw[np.tril_indices(n)] = np.nan  # validate mirrors the upper triangle
        a = validate(raw)
        perm = rng.permutation(n)
        permuted = np.empty((n, n))
        permuted[np.ix_(perm, perm)] = a.entries
        scan = triad_scan(a)
        for b, image in (
            (PartialReciprocalMatrix(permuted), lambda c: tuple(int(perm[v]) for v in c)),
            (PartialReciprocalMatrix(a.entries.T), lambda c: c[::-1]),
        ):
            other = triad_scan(b)
            assert (other.mt, other.count) == (scan.mt, scan.count)
            # The worst triad's reported value can differ in its last bits under
            # transposition, so only the cycle itself is compared.
            if scan.worst is not None and not (scan.tie or other.tie):
                worst, _ = scan.worst.worst_orientation()
                assert image(worst) in rotations(other.worst.worst_orientation()[0])
