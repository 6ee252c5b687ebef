"""Shared matrices and random-instance generators for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

import oracle
from triadcomplete import SpecGraph, is_chordal, validate
from triadcomplete.completion import FeasibleInterval

SQRT6 = math.sqrt(6.0)

# 5x5 partial matrix with two unspecified comparisons; its specification
# graph is K5 minus {1,5} and {2,5} (one-based), which is chordal.
FIVE_PARTIAL = [
    [1, 6, 1 / 2, 1, None],
    [1 / 6, 1, 1 / 3, 1 / 2, None],
    [2, 3, 1, 2, 2],
    [1, 2, 1 / 2, 1, 1 / 2],
    [None, None, 1 / 2, 2, 1],
]

# Rows/columns 2..5 of FIVE_PARTIAL: a single-missing-entry subproblem.
SUB_FOUR = [
    [1, 1 / 3, 1 / 2, None],
    [3, 1, 2, 2],
    [2, 1 / 2, 1, 1 / 2],
    [None, 1 / 2, 2, 1],
]

# 4x4 partial whose graph is the 4-cycle 1-2-3-4-1: every specified triad
# is vacuously consistent, yet the cycle product is 5/6, so no consistent
# completion exists.
CYCLE_PCM = [
    [1, 2, None, 4],
    [1 / 2, 1, 1 / 3, None],
    [None, 3, 1, 5],
    [1 / 4, None, 1 / 5, 1],
]

# Same pattern with the (1,4) entry replaced so every cycle product is 1.
CYCLE_PC_PLUS = [
    [1, 2, None, 10 / 3],
    [1 / 2, 1, 1 / 3, None],
    [None, 3, 1, 5],
    [3 / 10, None, 1 / 5, 1],
]

# A chordal file whose product through neighbour 1 of entry (2, 5),
# 1e-160 * 1e-155, is subnormal: it has lost digits, so an interval built on
# it is off by more than the comparison tolerance.
SUBNORMAL_PRODUCT_TEXT = """\
1.0,1e+160,2.3559101637743e-69,5.458812476514266e-100,1e-155
1e-160,1.0,?,2.9624030222948465e-79,?
4.244644024956979e+68,?,1.0,?,?
1.8319002609127027e+99,3.375637927972889e+78,?,1.0,?
1e+155,?,?,?,1.0
"""


# Complete 3x3 block used in block-join tests; its only triad product is 2.
BLOCK_THREE = [
    [1, 2, 1 / 3],
    [1 / 2, 1, 1 / 3],
    [3, 3, 1],
]


def five_partial():
    return validate(FIVE_PARTIAL)


def sub_four():
    return validate(SUB_FOUR)


def five_completed():
    """FIVE_PARTIAL completed with the minimax values for both entries."""
    return (
        five_partial()
        .with_entry(1, 4, SQRT6 / 6.0)
        .with_entry(0, 4, math.sqrt(SQRT6 / 2.0))
        .to_complete()
    )


@lru_cache(maxsize=64)
def adjacency(g):
    """Each vertex's neighbour set, read from ``g.edges`` alone (no bitset arithmetic)."""
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return tuple(map(frozenset, adj))


def has_edge(g, i, j):
    return j in adjacency(g)[i]


def add_edge(g, i, j):
    """``g`` plus the edge {i, j}."""
    return SpecGraph.from_edges(g.n, g.edges | {(i, j)})


def c0_products(m, i, k, x: float) -> list[tuple[tuple[int, int, int], float]]:
    """Oriented 3-cycle products through the unspecified (i, k) of ``m`` once it is set to x."""
    out = []
    for j, s in oracle.constraint_products(m, i, k):
        out.append(((i, j, k), s / x))
        out.append(((k, j, i), x / s))
    return out


def minimax_value(fi: FeasibleInterval) -> float:
    """Largest new oriented triad product at the interval's minimax point."""
    if fi.unconstrained:
        return 1.0
    return fi.mt_context * math.sqrt(fi.lo / fi.hi)


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def random_weights(rng, n):
    return log_uniform(rng, 1 / 9, 9, n)


def consistent_matrix(w):
    w = np.asarray(w, dtype=float)
    return validate(np.outer(w, 1.0 / w))


def random_tree_edges(rng, n):
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def random_connected_chordal_graph(rng, n, min_missing=0):
    """Grow a random tree by chordality-preserving edge additions.

    At least ``min_missing`` non-edges are left unfilled.
    """
    g = SpecGraph.from_edges(n, random_tree_edges(rng, n))
    budget = len(g.non_edges()) - min_missing
    extra = int(rng.integers(0, budget + 1)) if budget > 0 else 0
    for _ in range(extra):
        addable = [e for e in g.non_edges() if is_chordal(add_edge(g, *e))[0]]
        if not addable:
            break
        g = add_edge(g, *addable[int(rng.integers(len(addable)))])
    return g


def prm_on_graph(rng, g):
    """Random entries (log-uniform in [1/9, 9]) on the pattern of ``g``."""
    raw = [[None] * g.n for _ in range(g.n)]
    for v in range(g.n):
        raw[v][v] = 1.0
    for i, j in sorted(g.edges):
        raw[i][j] = float(log_uniform(rng, 1 / 9, 9))
    return validate(raw)


def star_graph(n):
    """Vertex 0 adjacent to every other vertex, and no other edge."""
    return SpecGraph.from_edges(n, [(0, j) for j in range(1, n)])


def clique_attached_graph(rng, n, clique_max=4):
    """Connected chordal graph in which each new vertex joins part of an earlier clique.

    The new vertex is simplicial when added, so the graph stays chordal
    with no chordality test, which keeps n in the tens affordable.
    """
    cliques = [(0,)]
    edges = []
    for v in range(1, n):
        base = cliques[int(rng.integers(len(cliques)))]
        part = rng.choice(base, int(rng.integers(1, min(len(base), clique_max) + 1)), replace=False)
        edges += [(int(u), v) for u in part]
        cliques.append((*part.tolist(), v))
    return SpecGraph.from_edges(n, edges)


def permuted(m, perm):
    """P·A·Pᵀ: entry (i, j) of ``m`` moved to (perm[i], perm[j]).

    ``entries[np.ix_(perm, perm)]`` maps a result on these labels back.
    """
    entries = np.empty_like(m.entries)
    entries[np.ix_(perm, perm)] = m.entries
    return validate(entries)


def random_chordal_prm(rng, n, min_missing=0):
    return prm_on_graph(rng, random_connected_chordal_graph(rng, n, min_missing))


def random_prm(rng, n, p=0.55):
    """Random symmetric pattern (possibly disconnected) with random entries."""
    raw = [[None] * n for _ in range(n)]
    for v in range(n):
        raw[v][v] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                raw[i][j] = float(log_uniform(rng, 1 / 9, 9))
    return validate(raw)


def mask_to_graph(m, g):
    """Keep only the entries of ``m`` on the edges of ``g``."""
    raw = [[None] * m.n for _ in range(m.n)]
    for v in range(m.n):
        raw[v][v] = 1.0
    for i, j in g.edges:
        raw[i][j] = float(m.entries[i, j])
    return validate(raw)


def perturbed_consistent(rng, n, factor=9.0):
    """Consistent matrix with one entry pair multiplied by ``factor``.

    Returns (perturbed, original, edge).
    """
    m = consistent_matrix(random_weights(rng, n))
    i = int(rng.integers(0, n - 1))
    j = int(rng.integers(i + 1, n))
    bad = m.with_entry(i, j, float(m.entries[i, j]) * factor).to_complete()
    return bad, m.to_complete(), (i, j)


def _graph_distance(g, a, b):
    from collections import deque

    adj = adjacency(g)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            return dist[v]
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return math.inf


def random_nonchordal_pcplus(rng, n):
    """Consistent data on a connected, non-chordal pattern (hence PC+).

    The pattern is a random tree plus one edge closing a chordless cycle of
    length at least 4.  Returns (partial, full) with ``full`` the consistent
    source matrix.
    """
    if n < 4:
        raise ValueError("need n >= 4 for a non-chordal pattern")
    full = consistent_matrix(random_weights(rng, n))
    while True:
        g = SpecGraph.from_edges(n, random_tree_edges(rng, n))
        far = [e for e in g.non_edges() if _graph_distance(g, *e) >= 3]
        if far:
            g = add_edge(g, *far[int(rng.integers(len(far)))])
            break
    assert not is_chordal(g)[0]
    return mask_to_graph(full, g), full


def random_two_component_chordal_prm(rng):
    """Two disjoint chordal blocks with random entries (3-4 vertices each)."""
    n1 = int(rng.integers(3, 5))
    n2 = int(rng.integers(3, 5))
    g1 = random_connected_chordal_graph(rng, n1)
    g2 = random_connected_chordal_graph(rng, n2)
    edges = set(g1.edges) | {(i + n1, j + n1) for i, j in g2.edges}
    return prm_on_graph(rng, SpecGraph.from_edges(n1 + n2, edges))


def random_sparse_graph(rng, n, parts=1, extra=0.05):
    """``parts`` connected blocks on shuffled labels, each a random tree plus random extra edges.

    Each pair inside a block becomes an extra edge with probability
    ``extra``; at n in the tens the pattern is then almost never chordal.
    """
    perm = rng.permutation(n)
    edges = set()
    for block in np.array_split(perm, parts):
        for p in range(1, len(block)):
            edges.add(tuple(sorted((int(block[p]), int(block[rng.integers(p)])))))
        for a, b in np.argwhere(np.triu(rng.random((len(block),) * 2) < extra, 1)):
            edges.add(tuple(sorted((int(block[a]), int(block[b])))))
    return SpecGraph.from_edges(n, edges)


GRAPH_KINDS = ("tree", "star", "clique-attached", "gnp")


def graph_of_kind(rng, kind, n):
    """A random graph on n vertices: a tree, a star, a clique-attached chordal graph
    (cliques up to 8) or G(n, p) with p from 0.02 to 0.6."""
    if kind == "tree":
        return SpecGraph.from_edges(n, random_tree_edges(rng, n))
    if kind == "star":
        return star_graph(n)
    if kind == "clique-attached":
        return clique_attached_graph(rng, n, clique_max=int(rng.integers(1, 9)))
    return random_graph(rng, n, float(rng.uniform(0.02, 0.6)))


def random_graph(rng, n, p):
    """G(n, p): each pair an edge with probability p."""
    return SpecGraph.from_edges(n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p])


def disjoint_union(rng, n, kinds):
    """One block per kind (see :func:`graph_of_kind`), on shuffled vertex labels."""
    edges = []
    for kind, block in zip(kinds, np.array_split(rng.permutation(n), len(kinds))):
        if len(block):
            local = graph_of_kind(rng, kind, len(block))
            edges += [(int(block[i]), int(block[j])) for i, j in local.edges]
    return SpecGraph.from_edges(n, edges)
