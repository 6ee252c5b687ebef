"""Triad enumeration and inconsistency measures.

The central measure is the maximum 3-cycle product over fully specified
triads, written ``mt`` here.  It is 1 exactly when every specified triad
is consistent, and it applies unchanged to partial matrices (defaulting
to 1 when no triad is fully specified).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isfinite

import numpy as np

from .errors import EntrySpecifiedError
from .graphs import Edge, SpecGraph, bfs_parents, common_specified_neighbors, connected_components
from .matrices import DEFAULT_TOL, PartialReciprocalMatrix, Tolerances


@dataclass(frozen=True)
class TriadProduct:
    """3-cycle product a[i,j] * a[j,k] * a[k,i] for one triangle i < j < k.

    ``value`` is the ascending orientation; the descending one is its
    reciprocal.
    """

    i: int
    j: int
    k: int
    value: float

    def __post_init__(self) -> None:
        if not (self.i < self.j < self.k):
            raise ValueError("triad indices must be ascending")
        if not (self.value > 0.0 and isfinite(self.value)):
            raise ValueError(f"triad product must be positive, got {self.value!r}")

    @property
    def reciprocal(self) -> float:
        return 1.0 / self.value

    @property
    def max_value(self) -> float:
        """The larger of the two oriented products."""
        return max(self.value, 1.0 / self.value)

    def worst_orientation(self) -> tuple[tuple[int, int, int], float]:
        """Index order and value of the orientation with the larger product."""
        if self.value >= 1.0 / self.value:
            return (self.i, self.j, self.k), self.value
        return (self.k, self.j, self.i), 1.0 / self.value


def specified_triads(m: PartialReciprocalMatrix) -> list[TriadProduct]:
    """All triangles whose three entries are specified, one per index triple."""
    e, mask = m.entries, m.mask
    out = []
    for i, j, k in combinations(range(m.n), 3):
        if mask[i, j] and mask[j, k] and mask[i, k]:
            out.append(TriadProduct(i, j, k, float(e[i, j] * e[j, k] * e[k, i])))
    return out


def mt(m: PartialReciprocalMatrix) -> float:
    """Maximum oriented 3-cycle product over fully specified triads; >= 1.

    Returns 1.0 when no triad is fully specified.  Vectorized over the
    middle index: NaN entries poison exactly the incomplete triads, which
    nanmax then ignores.
    """
    e = m.entries
    best = 1.0
    for j in range(m.n):
        prods = np.outer(e[:, j], e[j, :]) * e.T
        best = max(best, float(np.nanmax(prods)))
    return best


def is_pcm(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every fully specified triad product is 1 within ``tol.cons``.

    Oriented products come in reciprocal pairs, so the maximum being 1
    forces all of them to 1; testing ``mt`` is equivalent to checking every
    fully specified principal submatrix for consistency.
    """
    return mt(m) <= 1.0 + tol.cons


def tree_weights(m: PartialReciprocalMatrix, component) -> dict[int, float]:
    """BFS spanning-tree weights for one component of the specification graph.

    The root (smallest vertex) gets weight 1 and each tree edge i -> j sets
    w[j] = w[i] / a[i, j], so w[i] / w[j] reproduces every tree entry.
    """
    comp = sorted(component)
    adj = {v: np.flatnonzero(m.mask[v]).tolist() for v in comp}
    outside = set(range(m.n)).difference(comp)
    weights = {}
    for j, i in bfs_parents(adj, comp[0], blocked=outside).items():
        weights[j] = 1.0 if i == j else weights[i] / float(m.entries[i, j])
    return weights


def is_pc_plus(
    m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, Edge | None]:
    """Test whether every fully specified cycle product equals 1.

    Per component, spanning-tree weights are propagated and every specified
    entry is compared against w[i] / w[j]; tree entries agree by
    construction, so any violation shows up on a non-tree edge.  Returns
    that edge as a witness (the tree path between its endpoints plus the
    edge itself closes a violating cycle).
    """
    g = SpecGraph.from_matrix(m)
    for comp in connected_components(g):
        w = tree_weights(m, comp)
        for i in comp:
            for j in comp:
                if j <= i or not m.mask[i, j]:
                    continue
                if abs(float(m.entries[i, j]) * w[j] / w[i] - 1.0) > tol.cons:
                    return False, (i, j)
    return True, None


@dataclass(frozen=True)
class TriadSets:
    """Triad bookkeeping around one unspecified entry (i, k).

    ``s`` holds (j, a[i,j] * a[j,k]) for every common
    specified neighbor j; these are exactly the triad products through
    (i, k) once divided by the candidate value x.
    """

    entry: Edge
    s: tuple[tuple[int, float], ...]

    @property
    def is_unconstrained(self) -> bool:
        return not self.s

    @property
    def s_min(self) -> float | None:
        return min(v for _, v in self.s) if self.s else None

    @property
    def s_max(self) -> float | None:
        return max(v for _, v in self.s) if self.s else None

    def c0_products(self, x: float) -> list[tuple[tuple[int, int, int], float]]:
        """Oriented 3-cycle products through the entry once it is set to x."""
        i, k = self.entry
        out = []
        for j, s in self.s:
            out.append(((i, j, k), s / x))
            out.append(((k, j, i), x / s))
        return out


def triad_sets_for_entry(m: PartialReciprocalMatrix, i: int, k: int) -> TriadSets:
    """Collect the triad sets relevant to filling the unspecified entry (i, k)."""
    i, k = (i, k) if i < k else (k, i)
    if m.mask[i, k]:
        raise EntrySpecifiedError(i, k)
    g = SpecGraph.from_matrix(m)
    s = tuple(
        (j, float(m.entries[i, j] * m.entries[j, k]))
        for j in common_specified_neighbors(g, i, k)
    )
    return TriadSets(entry=(i, k), s=s)


def max_triad(
    m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[TriadProduct | None, bool]:
    """Triad achieving ``mt`` plus a tie flag.

    Ties break to the lexicographically smallest index triple.  The flag is
    set when two or more oriented products lie within ``tol.cmp`` of the
    maximum (a consistent matrix always ties: both orientations equal 1).
    """
    triads = specified_triads(m)
    if not triads:
        return None, False
    peak = max(t.max_value for t in triads)
    hits = 0
    for t in triads:
        hits += abs(t.value / peak - 1.0) <= tol.cmp
        hits += abs(t.reciprocal / peak - 1.0) <= tol.cmp
    best = min(
        (t for t in triads if abs(t.max_value / peak - 1.0) <= tol.cmp),
        key=lambda t: (t.i, t.j, t.k),
    )
    return best, hits >= 2


def koczkodaj_index(m: PartialReciprocalMatrix) -> float:
    """Triad-based index 1 - 1/mt, in [0, 1); 0 exactly for (partially) consistent data."""
    return 1.0 - 1.0 / mt(m)
