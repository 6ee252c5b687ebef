import re
from collections import deque
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from cases import add_edge, adjacency, has_edge
from triadcomplete import (
    PartialReciprocalMatrix,
    SpecGraph,
    chordal_ordering,
    connected_components,
    graphs,
    is_chordal,
    validate,
)
from triadcomplete.errors import ComponentNotChordalError
from triadcomplete.graphs import _chordless_cycle_or_none, bfs_parents

try:
    import networkx as nx
except ImportError:  # the oracle property below skips
    nx = None


def brute_is_chordal(g):
    """Chordality by direct enumeration of chordless cycles (length >= 4)."""
    for size in range(4, g.n + 1):
        for verts in combinations(range(g.n), size):
            first = verts[0]
            for rest in permutations(verts[1:]):
                if rest[0] > rest[-1]:
                    continue
                cycle = (first,) + rest
                closed = cycle + (first,)
                if not all(has_edge(g, a, b) for a, b in zip(closed, closed[1:])):
                    continue
                cycle_edges = {tuple(sorted(p)) for p in zip(closed, closed[1:])}
                chords = [
                    (a, b)
                    for a, b in combinations(cycle, 2)
                    if has_edge(g, a, b) and tuple(sorted((a, b))) not in cycle_edges
                ]
                if not chords:
                    return False
    return True


def reference_ordering(g):
    """The greedy scan, highest pair first, with a full chordality test of every candidate."""
    ordering = []
    while g.non_edges():
        candidates = sorted(g.non_edges(), reverse=True)
        e = next(e for e in candidates if is_chordal(add_edge(g, *e))[0])
        ordering.append(e)
        g = add_edge(g, *e)
    return tuple(ordering)


def restart_scan_ordering(g):
    """The greedy scan of a connected chordal g with no memo: after every accepted edge it
    restarts from the highest pair and tests each candidate's N(u) ∩ N(v) by a set-based
    breadth-first search."""
    adj = [set(nb) for nb in adjacency(g)]
    candidates = sorted(((u, v) for u, v in combinations(range(g.n), 2) if v not in adj[u]),
                        reverse=True)
    ordering = []
    while candidates:
        for u, v in candidates:
            common = adj[u] & adj[v]
            seen, queue = {u}, deque([u])
            while queue:
                for w in adj[queue.popleft()] - common - seen:
                    seen.add(w)
                    queue.append(w)
            if common and v not in seen:
                break
        else:
            raise AssertionError("no chordality-preserving edge found")
        ordering.append((u, v))
        candidates.remove((u, v))
        adj[u].add(v)
        adj[v].add(u)
    return tuple(ordering)


def spanning_tree(g):
    """BFS spanning tree from vertex 0, neighbors visited in ascending order."""
    parent = bfs_parents(g.bits, 0)
    if len(parent) != g.n:
        raise ValueError("spanning tree requires a connected graph")
    return SpecGraph.from_edges(g.n, [(p, v) for v, p in parent.items() if v != p])


def common_specified_neighbors(g, i, k):
    """All j adjacent to both i and k, ascending."""
    if i == k:
        raise ValueError("vertices must be distinct")
    adj = adjacency(g)
    return tuple(sorted(adj[i] & adj[k]))


def induced_by_edge_walk(g, vertices):
    """Subgraph on ``vertices`` relabeled in sorted order, one pass over all edges."""
    local = {v: p for p, v in enumerate(sorted(vertices))}
    edges = [(local[i], local[j]) for i, j in g.edges if i in local and j in local]
    return SpecGraph.from_edges(len(local), edges)


def relabelled_chordless_cycles(g):
    """``SpecGraph.chordless_cycles`` by testing each component relabelled to 0..len-1."""
    cycles = []
    for comp in connected_components(g):
        witness = is_chordal(induced_by_edge_walk(g, comp))[1]
        cycles.append(witness and tuple(comp[v] for v in witness))
    return tuple(cycles)


def relabelled(g, perm):
    """``g`` with vertex v renamed ``perm[v]``."""
    return SpecGraph.from_edges(g.n, [(int(perm[i]), int(perm[j])) for i, j in g.edges])


def mixed_component_graph(rng, n, parts):
    """``parts`` connected blocks on shuffled labels, each chordal or a tree plus extra edges."""
    edges = []
    for block in np.array_split(rng.permutation(n), parts):
        if rng.random() < 0.5:
            local = cases.clique_attached_graph(rng, len(block))
        else:
            local = cases.random_sparse_graph(rng, len(block), extra=float(rng.uniform(0, 0.4)))
        edges += [(int(block[i]), int(block[j])) for i, j in local.edges]
    return SpecGraph.from_edges(n, edges)


def two_component_graph(rng, n1, n2):
    """Two random connected chordal graphs on interleaved, shuffled vertex labels."""
    g1 = cases.random_connected_chordal_graph(rng, n1)
    g2 = cases.random_connected_chordal_graph(rng, n2)
    label = rng.permutation(n1 + n2).tolist()
    edges = list(g1.edges) + [(i + n1, j + n1) for i, j in g2.edges]
    return SpecGraph.from_edges(n1 + n2, [(label[i], label[j]) for i, j in edges])


def assert_chordless_cycle(g, witness):
    assert len(witness) >= 4 and len(set(witness)) == len(witness)
    closed = witness + (witness[0],)
    cycle_edges = {tuple(sorted(p)) for p in zip(closed, closed[1:])}
    assert all(has_edge(g, a, b) for a, b in zip(closed, closed[1:]))
    for a, b in combinations(witness, 2):
        if tuple(sorted((a, b))) not in cycle_edges:
            assert not has_edge(g, a, b)


class TestFromMatrix:
    def test_complete_matrix_gives_complete_graph(self):
        m = cases.consistent_matrix([1, 2, 3, 4])
        g = SpecGraph.from_matrix(m)
        assert len(g.edges) == 6 and g.non_edges() == []

    def test_cycle_pattern(self):
        g = SpecGraph.from_matrix(validate(cases.CYCLE_PCM))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_five_by_five_pattern(self):
        g = SpecGraph.from_matrix(cases.five_partial())
        assert g.non_edges() == [(0, 4), (1, 4)]

    def test_equals_edges_of_mask(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 13))
            m = cases.random_prm(rng, n, p=float(rng.uniform(0.05, 0.9)))
            rows, cols = np.nonzero(np.triu(m.mask, 1))
            g = SpecGraph.from_matrix(m)
            assert g == SpecGraph.from_edges(n, zip(rows.tolist(), cols.tolist()))
            assert g.n == n and len(g.edges) == len(rows)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 128, 129])
    def test_equals_edges_of_mask_across_byte_and_word_boundaries(self, rng, n):
        m = cases.random_prm(rng, n, p=0.5)
        rows, cols = np.nonzero(np.triu(m.mask, 1))
        expected = SpecGraph.from_edges(n, zip(rows.tolist(), cols.tolist()))
        assert SpecGraph.from_matrix(m) == expected

    def test_nan_diagonal_still_gives_closed_neighbourhoods(self):
        entries = np.array(validate(cases.CYCLE_PCM).entries)
        np.fill_diagonal(entries, np.nan)
        g = SpecGraph.from_matrix(PartialReciprocalMatrix(entries))
        assert g == SpecGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestFromEdges:
    @pytest.mark.parametrize("edge", [(0, 3), (-1, 2), (1, 1)])
    def test_refuses_an_invalid_edge(self, edge):
        with pytest.raises(ValueError, match=re.escape(f"invalid edge {edge} for 3 vertices")):
            SpecGraph.from_edges(3, [(0, 1), edge])


class TestIsChordal:
    def test_trees_are_chordal(self, rng):
        for n in range(2, 9):
            g = SpecGraph.from_edges(n, cases.random_tree_edges(rng, n))
            assert is_chordal(g) == (True, None)

    def test_four_cycle_witness(self):
        g = SpecGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        ok, witness = is_chordal(g)
        assert not ok
        assert sorted(witness) == [0, 1, 2, 3]
        closed = witness + (witness[0],)
        assert all(has_edge(g, a, b) for a, b in zip(closed, closed[1:]))

    def test_five_by_five_graph_is_chordal(self):
        g = SpecGraph.from_matrix(cases.five_partial())
        assert is_chordal(g)[0]

    def test_witness_is_a_chordless_cycle(self, rng):
        found = 0
        while found < 25:
            g = cases.random_graph(rng, int(rng.integers(4, 9)), 0.45)
            ok, witness = is_chordal(g)
            if ok:
                continue
            found += 1
            assert_chordless_cycle(g, witness)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(150):
            n = int(rng.integers(3, 8))
            g = cases.random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
            assert is_chordal(g)[0] == brute_is_chordal(g)

    @pytest.mark.skipif(nx is None, reason="the oracle is networkx.is_chordal")
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        kinds=st.lists(st.sampled_from(cases.GRAPH_KINDS), min_size=1, max_size=3),
    )
    def test_agrees_with_networkx_past_brute_force(self, seed, n, kinds):
        rng = np.random.default_rng(seed)
        g = cases.disjoint_union(rng, n, kinds)
        reference = nx.Graph(g.edges)
        reference.add_nodes_from(range(n))
        for comp in g.components:
            witness = _chordless_cycle_or_none(g.bits, comp)
            assert (witness is None) == nx.is_chordal(reference.subgraph(comp))
            if witness is not None:
                assert set(witness) <= set(comp)
                assert_chordless_cycle(g, witness)

    def test_witness_is_the_cycle_chordal_ordering_raises_with(self, rng):
        # One decision per graph: the whole graph's witness is its first
        # non-chordal component's, even when a later component holds a
        # cycle through smaller labels.
        first = SpecGraph.from_edges(9, [(0, 5), (5, 6), (6, 7), (7, 8), (5, 8),
                                         (1, 2), (2, 3), (3, 4), (1, 4)])
        assert is_chordal(first) == (False, (5, 6, 7, 8))
        nonchordal = 0
        for g in [first] + [mixed_component_graph(rng, n, int(rng.integers(2, 5)))
                            for n in rng.integers(8, 31, size=60).tolist()]:
            ok, witness = is_chordal(g)
            if ok:
                continue
            nonchordal += 1
            with pytest.raises(ComponentNotChordalError) as exc:
                chordal_ordering(g)
            assert witness == exc.value.cycle == next(c for c in g.chordless_cycles if c)
        assert nonchordal >= 20

    def test_components_tested_in_place_equal_relabelled_tests(self, rng):
        chordal = nonchordal = 0
        for _ in range(200):
            n = int(rng.integers(2, 31))
            g = mixed_component_graph(rng, n, int(rng.integers(1, min(n, 4) + 1)))
            assert g.chordless_cycles == relabelled_chordless_cycles(g)
            nonchordal += sum(c is not None for c in g.chordless_cycles)
            chordal += sum(c is None for c in g.chordless_cycles)
        assert chordal >= 100 and nonchordal >= 50


class TestConnectedComponents:
    def test_edgeless(self):
        assert connected_components(SpecGraph.from_edges(3, [])) == [(0,), (1,), (2,)]

    def test_cycle_is_connected(self):
        g = SpecGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert connected_components(g) == [(0, 1, 2, 3)]

    def test_two_blocks(self):
        g = SpecGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert connected_components(g) == [(0, 1, 2), (3, 4)]


class TestChordalOrdering:
    def test_complete_graph_empty_ordering(self):
        g = SpecGraph.from_edges(4, combinations(range(4), 2))
        assert chordal_ordering(g) == ()

    def test_five_by_five_default_order(self):
        g = SpecGraph.from_matrix(cases.five_partial())
        assert chordal_ordering(g) == ((1, 4), (0, 4))

    def test_path_graph(self):
        g = SpecGraph.from_edges(3, [(0, 1), (1, 2)])
        assert chordal_ordering(g) == ((0, 2),)

    def test_not_chordal_rejected(self):
        g = SpecGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ComponentNotChordalError) as exc:
            chordal_ordering(g)
        assert exc.value.component == (0, 1, 2, 3)
        assert exc.value.cycle == is_chordal(g)[1] == (0, 1, 2, 3)

    def test_disconnected_graph_ordered_component_by_component(self):
        # Components {0, 2, 4} and {1, 3, 5} are paths on interleaved labels.
        g = SpecGraph.from_edges(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
        assert chordal_ordering(g) == ((0, 4), (1, 5))
        # The first component that is not chordal is named, after a chordal one.
        g = SpecGraph.from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
        with pytest.raises(ComponentNotChordalError) as exc:
            chordal_ordering(g)
        assert exc.value.component == (2, 3, 4, 5)

    def test_every_prefix_stays_chordal(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 8))
            g = cases.random_connected_chordal_graph(rng, n, min_missing=1)
            ordering = chordal_ordering(g)
            assert len(ordering) == len(g.non_edges())
            current = g
            for e in ordering:
                current = add_edge(current, *e)
                assert brute_is_chordal(current)
            assert current.non_edges() == []

    def test_equals_full_chordality_test_per_candidate(self, rng):
        # The single-edge separator criterion must accept exactly the edge a
        # full chordality test accepts, so the greedy order is unchanged.  A
        # random relabelling of each graph shows the scan other candidate
        # sequences, so more separator decisions are checked.
        for _ in range(30):
            g = cases.random_connected_chordal_graph(rng, int(rng.integers(4, 13)))
            for h in (g, relabelled(g, rng.permutation(g.n))):
                assert chordal_ordering(h) == reference_ordering(h)
        # Two components on shuffled labels: the engines' ordering is each
        # component's reference ordering in turn, mapped to matrix indices.
        for _ in range(10):
            g = two_component_graph(rng, int(rng.integers(2, 11)), int(rng.integers(2, 11)))
            m = cases.prm_on_graph(rng, g)
            assert list(m.graph.components) == connected_components(g)
            expected = tuple(
                (comp[a], comp[b])
                for comp in connected_components(g)
                for a, b in reference_ordering(induced_by_edge_walk(g, comp))
            )
            assert chordal_ordering(m.graph) == expected

    @pytest.mark.parametrize("kind", ["tree", "star", "clique-attached"])
    def test_equals_restart_scan_at_scale(self, kind):
        # Past the brute-force chordality oracle: the memoised scan accepts the
        # same edges as restarting from the top with a fresh separator search
        # of every candidate.  One graph in two is relabelled, which shows the
        # scan other candidate sequences.
        rng = np.random.default_rng(["tree", "star", "clique-attached"].index(kind))
        for index in range(8):
            n = int(rng.integers(3, 41))
            g = cases.graph_of_kind(rng, kind, n)
            if index % 2:
                g = relabelled(g, rng.permutation(n))
            assert chordal_ordering(g) == restart_scan_ordering(g)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_separator_tests_per_accepted_edge_stay_within_n(self, monkeypatch, n):
        # A complexity guard: a rejected candidate is searched again only once
        # its separator has grown into the path its last search found, so
        # random trees and clique-attached graphs cost fewer than three
        # separator searches per accepted edge (at most 2.84 here, at n = 128).
        # Re-testing on any growth of the separator took 9-14 per edge at
        # n = 64 and 17-30 at n = 128.
        calls = []
        search = graphs._witness_path
        monkeypatch.setattr(graphs, "_witness_path", lambda *a: calls.append(a) or search(*a))
        for seed in range(3):
            tree = SpecGraph.from_edges(n, cases.random_tree_edges(np.random.default_rng(seed), n))
            clique = cases.clique_attached_graph(np.random.default_rng(seed), n)
            for g in (tree, clique):
                calls.clear()
                ordering = chordal_ordering(g)
                assert len(ordering) == len(g.non_edges())
                assert 0 < len(calls) <= 3 * len(ordering)

    def test_chord_forcing_at_each_step(self, rng):
        # Common neighbors of a chordality-preserving new edge must be
        # pairwise adjacent; this is what keeps the constraining products
        # within a bounded spread.
        for _ in range(25):
            n = int(rng.integers(4, 9))
            g = cases.random_connected_chordal_graph(rng, n, min_missing=1)
            current = g
            for i, k in chordal_ordering(g):
                common = common_specified_neighbors(current, i, k)
                for a, b in combinations(common, 2):
                    assert has_edge(current, a, b)
                current = add_edge(current, i, k)


class TestSpanningTree:
    def test_tree_returned_unchanged(self):
        g = SpecGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert spanning_tree(g).edges == g.edges

    def test_four_cycle(self):
        g = SpecGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert spanning_tree(g).edges == frozenset({(0, 1), (0, 3), (1, 2)})

    def test_triangle(self):
        g = SpecGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert spanning_tree(g).edges == frozenset({(0, 1), (0, 2)})

    def test_not_connected(self):
        with pytest.raises(ValueError):
            spanning_tree(SpecGraph.from_edges(3, [(0, 1)]))

    def test_tree_properties(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = cases.random_connected_chordal_graph(rng, n)
            t = spanning_tree(g)
            assert len(t.edges) == n - 1
            assert t.edges <= g.edges
            assert connected_components(t) == [tuple(range(n))]


class TestCommonSpecifiedNeighbors:
    def test_single_missing_entry_form(self):
        n = 5
        edges = set(combinations(range(n), 2)) - {(0, n - 1)}
        g = SpecGraph.from_edges(n, edges)
        assert common_specified_neighbors(g, 0, n - 1) == (1, 2, 3)

    def test_five_by_five_entry(self):
        g = SpecGraph.from_matrix(cases.five_partial())
        assert common_specified_neighbors(g, 1, 4) == (2, 3)

    def test_disjoint_stars(self):
        g = SpecGraph.from_edges(4, [(0, 1), (2, 3)])
        assert common_specified_neighbors(g, 0, 2) == ()

    def test_same_vertex_rejected(self):
        g = SpecGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            common_specified_neighbors(g, 1, 1)
