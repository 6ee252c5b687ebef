"""Triad scan and inconsistency measures.

The central measure is the maximum 3-cycle product over fully specified
triads, written ``mt`` here.  It is 1 exactly when every specified triad
is consistent, and it applies unchanged to partial matrices (defaulting
to 1 when no triad is fully specified).  Every triad product is formed
in :func:`triad_scan`, which the other measures read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EntrySpecifiedError, MatrixError, NotConsistentError
from .graphs import Edge, bfs_parents
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
    naming the triad, one-based.  :func:`new_triads_mt` updates ``mt``
    after one fill from the new triads alone.
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
                a, b, c = sorted(int(x) + 1 for x in (i, j, k))
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


def new_triads_mt(entries: np.ndarray, i: int, k: int, js) -> float:
    """Largest oriented product of the triads {i, j, k}, j in ``js``, once ``entries[i, k]`` is set.

    With ``js`` the common neighbors these are all the new triads, so the mt
    after the fill is ``max(mt before, this)``.  Each product is formed as
    ``(e[p,m] * e[m,q]) * e[q,p]``, m the middle vertex, as in :func:`triad_scan`,
    so the two agree bit for bit; on overflow a full scan names the triad.
    """
    ij, jk, kj, ji = entries[i, js], entries[js, k], entries[k, js], entries[js, i]
    x, y = entries[i, k], entries[k, i]
    with np.errstate(over="ignore", divide="ignore"):
        p = np.concatenate(((ij * jk) * y, (kj * ji) * x, (ji * x) * kj,  # middle j, j, i
                            (y * ij) * jk, (x * kj) * ji, (jk * y) * ij))  # middle i, k, k
        top, low = p.max(initial=1.0), p.min(initial=1.0)
        if top == math.inf or 1.0 / low == math.inf:
            return triad_scan(PartialReciprocalMatrix(entries)).mt
    return float(top)


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
    """BFS spanning-tree weights for one component of ``m.graph``, walked inside it.

    The root (smallest vertex) gets weight 1 and each tree edge i -> j sets
    w[j] = w[i] / a[i, j], so w[i] / w[j] reproduces every tree entry.  A
    weight out of (0, inf) raises :class:`MatrixError` naming (root, j).
    """
    root = min(component)
    weights = {}
    for j, i in bfs_parents(m.graph.adj, root).items():
        weights[j] = 1.0 if i == j else weights[i] / float(m.entries[i, j])
        if not 0.0 < weights[j] < math.inf:
            raise MatrixError(f"entry ({root + 1}, {j + 1}): implied value is out of range")
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
    for c, comp in enumerate(m.graph.components):
        edge = tree_violation(m, comp, m.component_weights(c), tol)
        if edge is not None:
            return False, edge
    return True, None


def tree_violation(
    m: PartialReciprocalMatrix, comp, wv: np.ndarray, tol: Tolerances
) -> Edge | None:
    """First specified (i, j) of ``comp``, in ``combinations`` order, off wv[i] / wv[j].

    ``wv`` holds the weights in ``comp``'s vertex order.
    """
    with np.errstate(over="ignore"):
        ratio = m.entries[np.ix_(comp, comp)] * wv / wv[:, None]  # unspecified: NaN
    off = np.argwhere(np.triu(np.abs(ratio - 1.0) > tol.cons, 1))
    return (comp[off[0, 0]], comp[off[0, 1]]) if len(off) else None


@dataclass(frozen=True, eq=False)
class TriadSets:
    """Triad bookkeeping around one unspecified entry (i, k).

    ``j`` holds every common specified neighbor, ascending, and ``s`` the
    products a[i,j] * a[j,k] over them; these are exactly the triad products
    through (i, k) once divided by the candidate value x.
    """

    entry: Edge
    j: np.ndarray
    s: np.ndarray

    @classmethod
    def of(cls, entries: np.ndarray, i: int, k: int) -> TriadSets:
        """Triad sets of the unspecified (NaN) entry (i, k), read from a matrix's entries."""
        i, k = (i, k) if i < k else (k, i)
        if not math.isnan(entries[i, k]):
            raise EntrySpecifiedError(i, k)
        with np.errstate(over="ignore"):
            s = entries[i] * entries[:, k]  # NaN where a factor is unspecified
        js = np.flatnonzero(~np.isnan(s))
        return cls((i, k), js, s[js])

    @property
    def is_unconstrained(self) -> bool:
        return not self.s.size

    @property
    def s_min(self) -> float | None:
        return float(self.s.min()) if self.s.size else None

    @property
    def s_max(self) -> float | None:
        return float(self.s.max()) if self.s.size else None

    @property
    def minimax(self) -> float:
        """``sqrt(s_max * s_min)``, rooted factor by factor when the product is not a normal double.

        A subnormal product has lost bits, so its root would too; an infinite one has no root.
        """
        if not self.s.size:
            return 1.0
        product = self.s_max * self.s_min
        if product == math.inf or product < sys.float_info.min:
            return math.sqrt(self.s_max) * math.sqrt(self.s_min)
        return math.sqrt(product)


def triad_sets_for_entry(m: PartialReciprocalMatrix, i: int, k: int) -> TriadSets:
    """Collect the triad sets relevant to filling the unspecified entry (i, k)."""
    return TriadSets.of(m.entries, i, k)


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
