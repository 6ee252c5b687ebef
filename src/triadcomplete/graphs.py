"""Specification-graph algorithms.

The graph of a partial matrix has an edge {i, j} exactly where the
off-diagonal entry (i, j) is specified.  It is stored as one int bitset per
vertex, its closed neighbourhood, and every algorithm here runs on those
bitsets.  Chordality of this graph is what makes one-entry-at-a-time
completion possible, so the module centres on a chordality test with a
chordless-cycle witness and on orderings of the missing edges that keep
every intermediate graph chordal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import combinations
from operator import or_

import numpy as np

from .errors import ComponentNotChordalError

Edge = tuple[int, int]


@dataclass(frozen=True)
class SpecGraph:
    """Undirected graph on vertices 0..n-1; bit u of ``bits[v]`` is set iff u == v or u ~ v."""

    bits: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as (min, max) pairs."""
        return frozenset((i, j) for i, b in enumerate(self.bits) for j in members(b) if i < j)

    @classmethod
    def from_edges(cls, n: int, edges) -> SpecGraph:
        bits = [1 << v for v in range(n)]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(f"invalid edge ({i}, {j}) for {n} vertices")
            bits[i] |= 1 << j
            bits[j] |= 1 << i
        return cls(tuple(bits))

    @classmethod
    def from_matrix(cls, m) -> SpecGraph:
        """Edges where matrix ``m`` is specified off the diagonal, each mask row packed into one
        int with bit v set even where the diagonal is NaN; ``m.graph`` keeps it."""
        rows = np.packbits(m.mask, axis=1, bitorder="little")
        return cls(tuple(int.from_bytes(r, "little") | 1 << v for v, r in enumerate(rows)))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(connected_components(self))

    @cached_property
    def chordless_cycles(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per component, a chordless cycle in this graph's labels, or None when it is chordal."""
        return tuple(_chordless_cycle_or_none(self.bits, comp) for comp in self.components)

    def non_edges(self) -> list[Edge]:
        return [(i, j) for i, j in combinations(range(self.n), 2) if not self.bits[i] >> j & 1]


def bfs_parents(bits, start: int, blocked: int = 0) -> dict[int, int]:
    """Breadth-first search from ``start`` over ``bits``: each reached vertex -> its parent.

    The dict is in visit order and maps ``start`` to itself.  Neighbors are
    visited in ascending order and vertices in bitset ``blocked`` are never
    entered, so the search, and every tree or path read off it, is deterministic.
    """
    parent, queue, seen = {start: start}, [start], blocked | 1 << start
    for v in queue:
        fresh = members(bits[v] & ~seen)
        seen |= bits[v]
        parent.update(dict.fromkeys(fresh, v))
        queue += fresh
    return parent


def _chordless_cycle(bits, verts) -> tuple[int, ...]:
    """Some chordless cycle of length >= 4 among ascending ``verts``; caller guarantees one exists.

    For every vertex v and non-adjacent pair u, w of its neighbors, a
    shortest u-w path avoiding v and v's other neighbors closes a cycle in
    which v has no chord and the path, being shortest, has none either.
    Every scan runs in ascending order, so the cycle is deterministic.
    """
    for v in verts:
        for u, w in combinations(members(bits[v] ^ 1 << v), 2):
            if bits[u] >> w & 1:
                continue
            parent = bfs_parents(bits, u, blocked=bits[v] & ~(1 << u | 1 << w))
            if w in parent:
                path = [w]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return (v, *path[::-1])
    raise AssertionError("no chordless cycle found in a non-chordal graph")


def _chordless_cycle_or_none(bits, verts) -> tuple[int, ...] | None:
    """A chordless cycle in the component of ascending ``verts``, or None if it is chordal.

    One maximum-cardinality search (ties to the smallest vertex) checks each
    vertex as it visits it: its visited neighbours must all be adjacent to
    the last of them visited.  The visit order reversed is then a perfect
    elimination order, and the first vertex that fails shows there is none
    (Tarjan & Yannakakis, SIAM J. Comput. 1984).
    """
    weight = dict.fromkeys(verts, 0)  # the unvisited vertices -> their visited neighbours
    visited, visited_at = 0, {}
    while weight:
        v = min(weight, key=lambda u: (-weight[u], u))
        del weight[v]
        earlier = bits[v] & visited
        if earlier:
            last = max(members(earlier), key=visited_at.__getitem__)
            if earlier & ~bits[last]:
                return _chordless_cycle(bits, verts)
        visited_at[v] = len(visited_at)
        visited |= 1 << v
        for u in members(bits[v] & ~visited):
            weight[u] += 1
    return None


def is_chordal(g: SpecGraph) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality test; the witness is the first component's ``g.chordless_cycles`` entry that
    is not None, the cycle :func:`chordal_ordering` raises with."""
    witness = next(filter(None, g.chordless_cycles), None)
    return witness is None, witness


def connected_components(g: SpecGraph) -> list[tuple[int, ...]]:
    """Sorted vertex sets of the components, by minimum; ``SpecGraph.components`` keeps them."""
    comps, left = [], (1 << g.n) - 1
    while left:
        comp = reduce(or_, _levels(g.bits, (left & -left).bit_length() - 1))
        comps.append(tuple(members(comp)))
        left &= ~comp
    return comps


def chordal_ordering(g: SpecGraph) -> tuple[Edge, ...]:
    """Greedy ordering of the non-edges inside g's components keeping every prefix graph chordal.

    Components are ordered in turn, each scanned highest pair first (the convention that
    matches the worked examples shipped with the package); the first component that is not
    chordal raises :class:`ComponentNotChordalError` with its ``g.chordless_cycles`` witness.
    A valid next edge always exists for a chordal component, so the greedy scan never
    dead-ends.  For a chordal G, G + uv is chordal iff N(u) ∩ N(v) separates u from v (Ibarra,
    ACM TALG 2008): a BFS over ``g.bits``, none if N(u) ∩ N(v) is empty (the component is
    connected).  Edges are only added, so a rejected pair stays rejected while the u-v path its
    search found avoids N(u) ∩ N(v); adding xy grows only the N(x) ∩ N(w) and N(y) ∩ N(w), so
    only the pairs at x or y whose path meets the growth are searched again.
    """
    ordering: list[Edge] = []
    for comp, cycle in zip(g.components, g.chordless_cycles):
        if cycle is not None:
            raise ComponentNotChordalError(comp, cycle)
        ordering += _greedy_ordering(list(g.bits), comp)
    return tuple(ordering)


def _greedy_ordering(bits: list[int], comp) -> list[Edge]:
    """:func:`chordal_ordering`'s scan of chordal ``comp`` (ascending); each edge taken joins
    ``bits``.  A rejected pair keeps the interior of the path it was searched with in ``paths``
    (-1: no common neighbour) and its ends in ``rejected``; ``heap`` holds the pairs to test
    again, negated so the highest pops first, and ``nxt`` the first untested position."""
    pairs = [(u, v) for u, v in combinations(comp, 2) if not bits[u] >> v & 1][::-1]
    paths: dict[Edge, int] = {}
    rejected, heap, nxt, ordering = [0] * len(bits), [], 0, []
    while len(ordering) < len(pairs):
        if heap:
            u, v = heappop(heap)
            u, v = -u, -v
        elif nxt < len(pairs):
            u, v = pairs[nxt]
            nxt += 1
        else:
            raise AssertionError("no chordality-preserving edge found")
        common = bits[u] & bits[v]
        path = _witness_path(bits, u, v, common) if common else -1
        if path:
            paths[u, v] = path
            rejected[u], rejected[v] = rejected[u] | 1 << v, rejected[v] | 1 << u
            continue
        ordering.append((u, v))
        bits[u], bits[v] = bits[u] | 1 << v, bits[v] | 1 << u
        for a, b in ((u, v), (v, u)):  # the pairs (a, x) gain the common neighbour b
            grown = bits[b] & rejected[a]
            for x in members(grown) if grown else ():
                pair = (a, x) if a < x else (x, a)
                if paths[pair] >> b & 1:
                    rejected[a], rejected[x] = rejected[a] & ~(1 << x), rejected[x] & ~(1 << a)
                    heappush(heap, (-pair[0], -pair[1]))
    return ordering


def _witness_path(bits: list[int], u: int, v: int, cut: int) -> int:
    """The interior of a shortest u-v path that avoids ``cut``, as a bitset, or 0 if ``cut``
    separates u from v (u and v not adjacent); the lowest vertex of each level is taken."""
    if bits[u] & ~cut == 1 << u or bits[v] & ~cut == 1 << v:  # an end has no way out
        return 0
    levels = _levels(bits, u, cut, 1 << v)
    if not levels[-1] >> v & 1:
        return 0
    path, w = 0, v
    for level in levels[-2:0:-1]:
        w = bits[w] & level
        w = (w & -w).bit_length() - 1
        path |= 1 << w
    return path


def _levels(bits: list[int], u: int, cut: int = 0, stop: int = 0) -> list[int]:
    """The levels, as bitsets, of a breadth-first search from u that never enters ``cut``;
    it ends after the first level that meets ``stop``, or when none is left."""
    levels, seen, frontier = [], cut | 1 << u, 1 << u
    while frontier:
        levels.append(frontier)
        if frontier & stop:
            break
        frontier = reduce(or_, map(bits.__getitem__, members(frontier))) & ~seen
        seen |= frontier
    return levels


def members(bits: int) -> list[int]:
    """The vertices of bitset ``bits``, ascending."""
    out = []
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out
