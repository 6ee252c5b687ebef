"""Specification-graph algorithms.

The graph of a partial matrix has an edge {i, j} exactly where the
off-diagonal entry (i, j) is specified.  Chordality of this graph is what
makes one-entry-at-a-time completion possible, so the module centres on a
chordality test with a chordless-cycle witness and on orderings of the
missing edges that keep every intermediate graph chordal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NotChordalError, NotConnectedError
from .matrices import PartialReciprocalMatrix

Edge = tuple[int, int]


def _canon(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class SpecGraph:
    """Undirected graph on vertices 0..n-1 with canonical (min, max) edges."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"invalid edge ({i}, {j}) for {self.n} vertices")

    @classmethod
    def from_edges(cls, n: int, edges) -> SpecGraph:
        return cls(n, frozenset(_canon(i, j) for i, j in edges))

    @classmethod
    def from_matrix(cls, m: PartialReciprocalMatrix) -> SpecGraph:
        i, j = np.nonzero(np.triu(m.mask, 1))
        return cls(m.n, frozenset(zip(i.tolist(), j.tolist())))

    def has_edge(self, i: int, j: int) -> bool:
        return _canon(i, j) in self.edges

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def add_edge(self, i: int, j: int) -> SpecGraph:
        return SpecGraph(self.n, self.edges | {_canon(i, j)})

    def non_edges(self) -> list[Edge]:
        return [e for e in combinations(range(self.n), 2) if e not in self.edges]

    def induced(self, vertices) -> SpecGraph:
        """Subgraph on ``vertices``, relabeled to 0..len-1 in sorted order."""
        verts = sorted(vertices)
        local = {v: p for p, v in enumerate(verts)}
        edges = {
            (local[i], local[j]) for i, j in self.edges if i in local and j in local
        }
        return SpecGraph(len(verts), frozenset(edges))


def _mcs_order(g: SpecGraph, adj: dict[int, set[int]]) -> list[int]:
    """Maximum-cardinality search visit order; ties go to the smallest vertex."""
    weight = [0] * g.n
    visited = [False] * g.n
    order: list[int] = []
    for _ in range(g.n):
        v = min(
            (u for u in range(g.n) if not visited[u]),
            key=lambda u: (-weight[u], u),
        )
        visited[v] = True
        order.append(v)
        for u in adj[v]:
            if not visited[u]:
                weight[u] += 1
    return order


def _is_perfect_elimination(adj: dict[int, set[int]], elim: list[int]) -> bool:
    pos = {v: p for p, v in enumerate(elim)}
    for v in elim:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if len(later) <= 1:
            continue
        u0 = min(later, key=pos.__getitem__)
        for w in later:
            if w != u0 and w not in adj[u0]:
                return False
    return True


def bfs_parents(adj, start: int, blocked=frozenset()) -> dict[int, int]:
    """Breadth-first search from ``start``: each reached vertex -> its parent.

    The dict is in visit order and maps ``start`` to itself.  Neighbors are
    visited in ascending order and vertices in ``blocked`` are never entered,
    so the search, and every tree or path read off it, is deterministic.
    """
    parent = {start: start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in sorted(adj[v]):
            if u not in parent and u not in blocked:
                parent[u] = v
                queue.append(u)
    return parent


def _chordless_cycle(g: SpecGraph, adj: dict[int, set[int]]) -> tuple[int, ...]:
    """Some chordless cycle of length >= 4; caller guarantees one exists.

    For every vertex v and non-adjacent pair u, w of its neighbors, a
    shortest u-w path avoiding v and v's other neighbors closes a cycle in
    which v has no chord and the path, being shortest, has none either.
    """
    for v in range(g.n):
        nb = sorted(adj[v])
        for u, w in combinations(nb, 2):
            if w in adj[u]:
                continue
            parent = bfs_parents(adj, u, blocked={v} | (set(nb) - {u, w}))
            if w in parent:
                path = [w]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return (v, *path[::-1])
    raise AssertionError("no chordless cycle found in a non-chordal graph")


def is_chordal(g: SpecGraph) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality test; on failure also returns a chordless cycle witness."""
    adj = g.adjacency()
    order = _mcs_order(g, adj)
    if _is_perfect_elimination(adj, order[::-1]):
        return True, None
    return False, _chordless_cycle(g, adj)


def connected_components(g: SpecGraph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    adj = g.adjacency()
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start not in seen:
            comp = bfs_parents(adj, start)
            seen.update(comp)
            comps.append(tuple(sorted(comp)))
    return comps


def spanning_tree(g: SpecGraph) -> SpecGraph:
    """BFS spanning tree from vertex 0, neighbors visited in ascending order."""
    parent = bfs_parents(g.adjacency(), 0)
    if len(parent) != g.n:
        raise NotConnectedError("spanning tree requires a connected graph")
    return SpecGraph(g.n, frozenset(_canon(p, v) for v, p in parent.items() if v != p))


def chordal_ordering(g: SpecGraph, lowest_first: bool = False) -> tuple[Edge, ...]:
    """Greedy ordering of all non-edges keeping every prefix graph chordal.

    Candidates are scanned highest pair first (the convention that matches
    the worked examples shipped with the package); ``lowest_first=True``
    scans in ascending order instead and generally yields a different,
    equally valid ordering.  A valid next edge always exists for a chordal
    graph, so the greedy scan never dead-ends.  For a chordal G, G + uv is
    chordal iff N(u) ∩ N(v) separates u from v (Ibarra, ACM TALG 2008), so
    one BFS per candidate accepts exactly what a full chordality test would.
    """
    if len(connected_components(g)) != 1:
        raise NotConnectedError("chordal ordering requires a connected graph")
    ok, witness = is_chordal(g)
    if not ok:
        raise NotChordalError(witness)
    adj = g.adjacency()
    candidates = sorted(g.non_edges(), reverse=not lowest_first)
    ordering: list[Edge] = []
    while candidates:
        for p, (u, v) in enumerate(candidates):
            if v not in bfs_parents(adj, u, blocked=adj[u] & adj[v]):
                break
        else:
            raise AssertionError("no chordality-preserving edge found")
        ordering.append(candidates.pop(p))
        adj[u].add(v)
        adj[v].add(u)
    return tuple(ordering)


def common_specified_neighbors(g: SpecGraph, i: int, k: int) -> tuple[int, ...]:
    """All j adjacent to both i and k, ascending."""
    if i == k:
        raise ValueError("vertices must be distinct")
    adj = g.adjacency()
    return tuple(sorted(adj[i] & adj[k]))
