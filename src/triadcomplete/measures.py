"""Triad scan and inconsistency measures.

The central measure is the maximum 3-cycle product over fully specified
triads, written ``mt`` here.  It is 1 exactly when every specified triad
is consistent, and it applies unchanged to partial matrices (defaulting
to 1 when no triad is fully specified).  Every triad product is formed
in :func:`triad_scan`, which the other measures read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import EntrySpecifiedError, MatrixError, NotConsistentError
from .graphs import Edge, SpecGraph, bfs_parents, connected_components
from .matrices import DEFAULT_TOL, CompleteReciprocalMatrix, PartialReciprocalMatrix, Tolerances


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
        if not (self.value > 0.0 and math.isfinite(self.value)):
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


@dataclass(frozen=True)
class TriadScan:
    """What :func:`triad_scan` finds; ``count`` is the number of fully specified triads."""

    mt: float
    pcm: bool
    worst: TriadProduct | None
    tie: bool
    count: int

    @property
    def koczkodaj(self) -> float:
        """1 - 1/mt; see :func:`koczkodaj_index`."""
        return 1.0 - 1.0 / self.mt


def triad_scan(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> TriadScan:
    """Form every 3-cycle product once, looping over the middle index j.

    ``prods[i, k] = a[i,j] * a[j,k] * a[k,i]``; NaN entries poison exactly
    the incomplete triads.  Block i < j < k holds each triad's ``value``;
    only the largest ``max_value`` per row (i, j) is kept.  Closeness to
    the peak grows with the value, so the first close row holds the worst
    triad, and a second close row or triad, or its reciprocal, is a tie.
    A product (or its reciprocal) that overflows raises :class:`MatrixError`
    naming the triad, one-based.
    """
    e, n = m.entries, m.n
    e_t = np.ascontiguousarray(e.T)
    prods, row_peak = np.empty((n, n)), np.zeros((n, n))
    best, peak, count = 1.0, 0.0, 0
    with np.errstate(over="ignore", divide="ignore"):
        for j in range(n):
            np.multiply(e[:, j, None], e[j], out=prods)
            prods *= e_t
            best = max(best, float(np.fmax.reduce(prods, axis=None)))
            v = prods[:j, j + 1 :]
            count += v.size - int(np.count_nonzero(np.isnan(v)))
            low = np.fmin.reduce(v, axis=1, initial=math.inf)
            top = np.fmax(np.fmax.reduce(v, axis=1, initial=0.0), 1.0 / low, out=row_peak[:j, j])
            peak = max(peak, float(top.max(initial=0.0)))
            if best == math.inf or peak == math.inf:
                i, k = np.argwhere(np.isinf(prods) | np.isinf(1.0 / prods))[0]
                a, b, c = sorted((int(i) + 1, j + 1, int(k) + 1))
                raise MatrixError(f"triad ({a}, {b}, {c}): 3-cycle product overflows")
    if peak == 0.0:
        return TriadScan(best, best <= 1.0 + tol.cons, None, False, 0)
    rows = np.argwhere((row_peak > 0.0) & (np.abs(row_peak / peak - 1.0) <= tol.cmp))
    i, j = (int(x) for x in rows[0])
    vals = e[i, j] * e[j, j + 1 :] * e[j + 1 :, i]
    hits = np.flatnonzero(np.abs(np.fmax(vals, 1.0 / vals) / peak - 1.0) <= tol.cmp)
    worst = TriadProduct(i, j, j + 1 + int(hits[0]), float(vals[hits[0]]))
    low = min(worst.value, worst.reciprocal)
    tie = len(rows) > 1 or len(hits) > 1 or abs(low / peak - 1.0) <= tol.cmp
    return TriadScan(best, best <= 1.0 + tol.cons, worst, tie, count)


def mt(m: PartialReciprocalMatrix) -> float:
    """Maximum oriented 3-cycle product over fully specified triads; 1.0 if there are none."""
    return triad_scan(m).mt


def is_pcm(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every fully specified triad product is 1 within ``tol.cons``.

    Oriented products come in reciprocal pairs, so the maximum being 1
    forces all of them to 1; testing ``mt`` is equivalent to checking every
    fully specified principal submatrix for consistency.
    """
    return triad_scan(m, tol).pcm


def is_consistent(m: CompleteReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """a[i,j] * a[j,k] == a[i,k] within ``tol.cons`` for all triples (is_pcm, as m is complete)."""
    return is_pcm(m, tol)


def rank_one_vector(m: CompleteReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positive w with m == outer(w, 1/w) and w[0] == 1: a consistent matrix's first column."""
    if not is_consistent(m, tol):
        raise NotConsistentError("matrix is not consistent; no rank-one vector exists")
    return np.array(m.entries[:, 0] / m.entries[0, 0])


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
        for i, j in combinations(comp, 2):
            if m.mask[i, j] and abs(float(m.entries[i, j]) * w[j] / w[i] - 1.0) > tol.cons:
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
    js = np.flatnonzero(m.mask[i] & m.mask[k])
    with np.errstate(over="ignore"):
        s = m.entries[i, js] * m.entries[js, k]
    return TriadSets(entry=(i, k), s=tuple(zip(js.tolist(), s.tolist())))


def max_triad(
    m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[TriadProduct | None, bool]:
    """Triad achieving ``mt`` plus a tie flag.

    Ties break to the lexicographically smallest index triple.  The flag is
    set when two or more oriented products lie within ``tol.cmp`` of the
    maximum (a consistent matrix always ties: both orientations equal 1).
    """
    scan = triad_scan(m, tol)
    return scan.worst, scan.tie


def koczkodaj_index(m: PartialReciprocalMatrix) -> float:
    """Triad-based index 1 - 1/mt, in [0, 1); 0 exactly for (partially) consistent data."""
    return triad_scan(m).koczkodaj
