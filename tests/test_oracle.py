import math
from itertools import combinations

import numpy as np
import pytest

import cases
from oracle import (
    GridSpec,
    TooLargeError,
    brute_cycle_products,
    brute_mt,
    grid_interval,
    pc_plus_by_least_squares,
)
from triadcomplete import (
    SpecGraph, chordal_ordering, feasible_interval, is_pc_plus, mt, validate
)


class TestBruteMt:
    def test_matches_fast_path_on_random_instances(self, rng):
        for _ in range(200):
            m = cases.random_prm(rng, int(rng.integers(1, 8)))
            assert brute_mt(m) == pytest.approx(mt(m), rel=1e-12)

    def test_five_by_five(self):
        assert brute_mt(cases.five_partial()) == pytest.approx(4.0, rel=1e-12)

    def test_tree_pattern(self, rng):
        g = SpecGraph.from_edges(6, cases.random_tree_edges(rng, 6))
        assert brute_mt(cases.prm_on_graph(rng, g)) == 1.0


class TestBruteCycleProducts:
    def test_cycle_pattern_product(self):
        products = dict(brute_cycle_products(validate(cases.CYCLE_PCM)))
        assert set(products) == {(0, 1, 2, 3)}
        assert products[(0, 1, 2, 3)] == pytest.approx(5 / 6, rel=1e-12)

    def test_consistent_complete_all_one(self, rng):
        m = cases.consistent_matrix(cases.random_weights(rng, 4))
        products = brute_cycle_products(m)
        assert len(products) == 4 + 3  # four triangles, three 4-cycles
        assert all(abs(p - 1.0) <= 1e-12 for _, p in products)

    def test_forest_pattern_empty(self, rng):
        g = SpecGraph.from_edges(6, cases.random_tree_edges(rng, 6))
        assert brute_cycle_products(cases.prm_on_graph(rng, g)) == []

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            brute_cycle_products(cases.consistent_matrix(np.ones(9)))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 1)

    def test_values_and_step(self):
        grid = GridSpec(1.0, 100.0, 3)
        assert grid.values() == pytest.approx([1.0, 10.0, 100.0])
        assert grid.step_factor == pytest.approx(10.0)


class TestGridInterval:
    def test_five_by_five_first_entry(self):
        m = cases.five_partial()
        grid = GridSpec(1 / 30, 5.0, 10_001)
        emp = grid_interval(m, 1, 4, grid)
        # the mt-context here is 4 (the whole partial), so the empirical
        # window is [s_max/4, 4*s_min] = [1/6, 1]
        assert emp.lo == pytest.approx(1 / 6, rel=2 * grid.step_factor - 2)
        assert emp.hi == pytest.approx(1.0, rel=2 * grid.step_factor - 2)

    def test_single_missing_entry_windows(self):
        a = cases.sub_four()
        grid = GridSpec(1 / 30, 5.0, 10_001)
        emp = grid_interval(a, 0, 3, grid)
        assert emp.lo == pytest.approx(1 / 3, rel=2 * grid.step_factor - 2)
        assert emp.hi == pytest.approx(1 / 2, rel=2 * grid.step_factor - 2)
        b = cases.five_partial().with_entry(1, 4, cases.SQRT6 / 6)
        emp = grid_interval(b, 0, 4, GridSpec(0.05, 20.0, 10_001))
        assert emp.lo == pytest.approx(cases.SQRT6 / 4, rel=1e-3)
        assert emp.hi == pytest.approx(2.0, rel=1e-3)

    def test_consistent_context_single_point(self, rng):
        full = cases.consistent_matrix(cases.random_weights(rng, 5))
        m = full.without_entry(0, 3)
        forced = float(full.entries[0, 3])
        # odd point count puts the geometric center exactly on the forced value
        emp = grid_interval(m, 0, 3, GridSpec(forced / 10, forced * 10, 10_001))
        assert emp.feasible_count == 1
        assert emp.lo == pytest.approx(forced, rel=1e-9)

    def test_brackets_formula_on_random_instances(self, rng):
        for _ in range(30):
            prm = cases.random_chordal_prm(rng, int(rng.integers(4, 8)), min_missing=1)
            i, k = chordal_ordering(SpecGraph.from_matrix(prm))[0]
            fi = feasible_interval(prm, i, k)
            grid = GridSpec(fi.lo / 10, fi.hi * 10, 4001)
            if fi.hi / fi.lo < grid.step_factor**2:
                continue
            emp = grid_interval(prm, i, k, grid)
            step = grid.step_factor
            assert fi.lo / step <= emp.lo * (1 + 1e-9)
            assert emp.lo <= fi.lo * step * (1 + 1e-9)
            assert fi.hi / step <= emp.hi * (1 + 1e-9)
            assert emp.hi <= fi.hi * step * (1 + 1e-9)


def _forest_and_chords(rng, n, parts):
    """A random spanning forest of ``parts`` trees on shuffled labels, and at least one chord.

    Each pair inside a tree that is not a tree edge becomes a chord with probability 2/n, so
    every chord closes a cycle with its tree path.  Returns (edges, chords) as (min, max) pairs.
    """
    forest, others = [], []
    for block in np.array_split(rng.permutation(n), parts):
        block = block.tolist()
        tree = {tuple(sorted((v, block[int(rng.integers(p))]))) for p, v in enumerate(block) if p}
        forest += sorted(tree)
        others += [e for e in combinations(sorted(block), 2) if e not in tree]
    chords = [e for e in others if rng.random() < 2 / n] or [others[int(rng.integers(len(others)))]]
    return forest + chords, chords


class TestPcPlusByLeastSquares:
    # Past the n <= 8 cycle enumeration: a consistent matrix on a sparse pattern is PC+, and
    # doubling one chord puts a cycle product at 2, a log-domain margin of log 2 that no
    # tolerance decides.  Both tests must say so, on one or two components.
    @pytest.mark.parametrize("parts", [1, 2])
    def test_agrees_with_spanning_tree_test(self, parts):
        for n in range(3 if parts == 1 else 5, 41):
            rng = np.random.default_rng(100 * parts + n)
            edges, chords = _forest_and_chords(rng, n, parts)
            full = cases.consistent_matrix(cases.random_weights(rng, n))
            m = cases.mask_to_graph(full, SpecGraph.from_edges(n, edges))
            assert pc_plus_by_least_squares(m) and is_pc_plus(m)[0], n
            i, j = chords[int(rng.integers(len(chords)))]
            bad = m.with_entry(i, j, 2.0 * float(m.entries[i, j]))
            assert not pc_plus_by_least_squares(bad) and not is_pc_plus(bad)[0], n
