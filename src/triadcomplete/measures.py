"""Triad scan and inconsistency measures.

The central measure is the maximum 3-cycle product over fully specified triads,
written ``mt`` here.  It is 1 exactly when every specified triad is consistent,
and it applies unchanged to partial matrices (defaulting to 1 when no triad is
fully specified).  :func:`triad_scan` reads the :class:`TriadTables` that the
one full scan builds in O(n^3) and a changed pair updates in O(n^2); one
function, :func:`_middle_products`, forms every middle's table for both and for
:func:`mt_pass`.  On the fill path :func:`new_triads_mt` forms the six oriented
products of each new triad in float arithmetic, grouped ``(a * b) * c`` alike
and so bitwise a rescan (a Python float multiply rounds as numpy's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MatrixError
from .graphs import Edge, bfs_parents
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
        """Koczkodaj's index 1 - 1/mt, in [0, 1); 0 for (partially) consistent data."""
        return 1.0 - 1.0 / self.mt


def triad_scan(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> TriadScan:
    """mt, the worst triad, its tie flag and the count, read from ``m``'s :class:`TriadTables`.

    An overflowing product (or reciprocal) raises :class:`MatrixError` naming the triad, one-based.
    """
    return TriadTables(m.entries).scan(tol)


class TriadTables:
    """Two n x n tables of a full triad scan, kept in step as one pair at a time changes.

    Every middle j's table ``prods_j`` comes from :func:`_middle_products`, for the build, an
    update and the overflow message; NaN poisons exactly the incomplete triads.  ``mid[j, i]``
    is the largest of row i of ``prods_j`` (mt is the largest ``mid``) and ``row_peak[i, j]``
    the largest max(v, 1/v) over the triads i < j < k, v = ``prods_j[i, k]``; closeness to the
    peak grows with the value, so the first close row holds the worst triad.  A changed pair
    (a, b) moves only middles a and b and rows a and b, an n x n array each: an update is
    O(n^2) and bitwise a rescan, overflow included.  ``entries`` is not copied.
    """

    def __init__(self, entries: np.ndarray) -> None:
        e, n = entries, entries.shape[0]
        self.entries, self.mid, self.row_peak = e, np.empty((n, n)), np.zeros((n, n))
        with np.errstate(over="ignore", divide="ignore"):
            for j, ks, prods in _scan_middles(e):
                np.fmax.reduce(prods, axis=0, out=self.mid[j], initial=math.nan)  # rows may be 0
                _peaks(prods[np.searchsorted(ks, j, "right") :, :j], self.row_peak[:j, j])
        self._check_overflow()
        upper = np.triu(~np.isnan(e), 1).astype(float)  # count i < j < k, with (k, i) from e.T
        self.count = int(np.vdot(upper @ upper, ~np.isnan(e.T)))

    def set(self, a: int, b: int, value: float) -> None:
        """Set (a, b) to ``value``, (b, a) to its reciprocal (NaN unspecifies); overflows raise."""
        e, was = self.entries, not math.isnan(self.entries[a, b])
        e[a, b], e[b, a] = value, 1.0 / value
        now = not math.isnan(value)  # and the triads {a, b, k} with (a, k), (b, k) specified:
        self.count += (now - was) * (int(np.count_nonzero(~np.isnan(e[a] + e[b]))) - 2 * now)
        self._update(e, self.mid, a, b, peaks=True)
        self._check_overflow()

    def cleared(self, a: int, b: int) -> tuple[np.ndarray, float]:
        """``entries`` copied with (a, b) and (b, a) unspecified, and its mt via a scratch mid."""
        e, mid = self.entries.copy(), self.mid.copy()
        e[a, b] = e[b, a] = math.nan
        self._update(e, mid, a, b, peaks=False)
        return e, float(np.fmax.reduce(mid, axis=None, initial=1.0))

    def _update(self, e: np.ndarray, mid: np.ndarray, a: int, b: int, peaks: bool) -> None:
        with np.errstate(over="ignore", divide="ignore"):
            for x in (a, b):
                prods = _middle_products(e, e.T, x)
                rows = (e.T * e[x]) * e[:, x, None]  # [k, j] = prods_j[x, k]
                np.fmax.reduce(prods, axis=0, out=mid[x])
                np.fmax.reduce(rows, axis=0, out=mid[:, x])
                if peaks:
                    _peaks(prods[x + 1 :, :x], self.row_peak[:x, x])
                    below = np.tri(len(e), k=-1, dtype=bool)[:, x + 1 :]  # k > j
                    _peaks(rows[:, x + 1 :], self.row_peak[x, x + 1 :], below)

    def _check_overflow(self) -> None:
        bad = np.isinf(self.mid).any(axis=1) | np.isinf(self.row_peak).any(axis=0)
        if bad.any():
            e, j = self.entries, int(np.argmax(bad))
            with np.errstate(over="ignore", divide="ignore"):
                prods = _middle_products(e, e.T, j)
                i, k = np.argwhere((np.isinf(prods) | np.isinf(1.0 / prods)).T)[0]
            a, b, c = sorted(int(x) + 1 for x in (i, j, k))
            raise MatrixError(f"triad ({a}, {b}, {c}): 3-cycle product overflows")

    def scan(self, tol: Tolerances = DEFAULT_TOL) -> TriadScan:
        """Read the scan; a second row or triad near the peak, or a near reciprocal, is a tie."""
        e, row_peak = self.entries, self.row_peak
        best = float(np.fmax.reduce(self.mid, axis=None, initial=1.0))
        peak = float(row_peak.max(initial=0.0))
        if peak == 0.0:
            return TriadScan(best, best <= 1.0 + tol.cons, None, False, 0)
        rows = np.argwhere((row_peak > 0.0) & (np.abs(row_peak / peak - 1.0) <= tol.cmp))
        i, j = (int(x) for x in rows[0])
        vals = e[i, j] * e[j, j + 1 :] * e[j + 1 :, i]
        hits = np.flatnonzero(np.abs(np.fmax(vals, 1.0 / vals) / peak - 1.0) <= tol.cmp)
        worst = TriadProduct(i, j, j + 1 + int(hits[0]), float(vals[hits[0]]))
        low = min(worst.value, worst.reciprocal)
        tie = len(rows) > 1 or len(hits) > 1 or abs(low / peak - 1.0) <= tol.cmp
        return TriadScan(best, best <= 1.0 + tol.cons, worst, tie, self.count)


def _middle_products(e, e_t, j, rows=slice(None), out=None) -> np.ndarray:
    """Middle j's table ``[k, i] = (e[j,k] * e[i,j]) * e[k,i]``, k in ``rows``; ``e_t`` is e.T."""
    prods = np.multiply(e[j, rows, None], e_t[j], out=out)
    return np.multiply(prods, e[rows], out=prods)


def _scan_middles(e: np.ndarray):
    """Each middle j, the ascending k with ``e[j, k]`` specified, and its table on those k."""
    e_t, buf = np.ascontiguousarray(e.T), np.empty(e.shape)  # the next j reuses the buffer
    for j in range(e.shape[0]):
        ks = np.flatnonzero(~np.isnan(e[j]))
        rows = slice(None) if len(ks) == len(e) else ks  # a full row needs no copies
        yield j, ks, _middle_products(e, e_t, j, rows, buf[: len(ks)])


def _peaks(v: np.ndarray, out: np.ndarray, where=True) -> None:  # column maxima of max(v, 1/v)
    low = np.fmin.reduce(v, axis=0, initial=math.inf, where=where)
    np.fmax(np.fmax.reduce(v, axis=0, initial=0.0, where=where), 1.0 / low, out=out)


def new_triads_mt(entries: np.ndarray, x: float, ij, jk, kj, ji) -> float:
    """Largest oriented product of the triads {i, j, k}, j in J, once (i, k) holds x, (k, i) 1 / x.

    ``ij, jk, kj, ji`` list the floats at [i, J], [J, k], [k, J] and [J, i]; with J the common
    neighbors these are all the new triads, so the mt after the fill is ``max(mt before, this)``.
    Each product is ``(e[p,m] * e[m,q]) * e[q,p]``, m the middle, as in :func:`triad_scan`, and a
    Python float multiply rounds as numpy's, so the two agree bit for bit.  An overflow (or an
    underflow to 0) hands over to a full scan of ``entries``, which names the triad.
    """
    y = 1.0 / x
    top = low = 1.0
    for a, b, c, d in zip(ij, jk, kj, ji):  # middle j, j, i, then i, k, k
        for p in ((a * b) * y, (c * d) * x, (d * x) * c, (y * a) * b, (x * c) * d, (b * y) * a):
            if p > top:
                top = p
            elif p < low:
                low = p
    if top == math.inf or low == 0.0 or 1.0 / low == math.inf:
        return triad_scan(PartialReciprocalMatrix(entries)).mt
    return top


def mt(m: PartialReciprocalMatrix) -> float:
    """Maximum oriented 3-cycle product over fully specified triads (1.0 if none); see ``m.mt``."""
    return m.mt


def mt_pass(m: PartialReciprocalMatrix) -> float:
    """Bitwise ``triad_scan(m).mt``: the scan's products, reduced to the largest and smallest.

    If the largest, or the smallest's reciprocal, is infinite, :func:`triad_scan` raises.
    """
    top, low = 1.0, math.inf
    with np.errstate(over="ignore", divide="ignore"):
        for _, _, prods in _scan_middles(m.entries):
            top = np.fmax.reduce(prods, axis=None, initial=top)
            low = np.fmin.reduce(prods, axis=None, initial=low)
        if top == math.inf or 1.0 / low == math.inf:
            return triad_scan(m).mt
    return float(top)


def is_pcm(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every fully specified triad product is 1 within ``tol.cons``.

    Oriented products come in reciprocal pairs, so the maximum being 1
    forces all of them to 1; testing ``mt`` is equivalent to checking every
    fully specified principal submatrix for consistency (the rule of ``TriadScan.pcm``).
    """
    return mt(m) <= 1.0 + tol.cons


def tree_weights(m: PartialReciprocalMatrix, component) -> dict[int, float]:
    """BFS spanning-tree weights for one component of ``m.graph``, walked inside it.

    The root (smallest vertex) gets weight 1 and each tree edge i -> j sets
    w[j] = w[i] / a[i, j], so w[i] / w[j] reproduces every tree entry.  A
    weight out of (0, inf) raises :class:`MatrixError` naming (root, j).
    """
    root = min(component)
    weights = {}
    for j, i in bfs_parents(m.graph.bits, root).items():
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
    edge itself closes a violating cycle).  ``m`` keeps the verdict per ``tol.cons``.
    """
    if tol.cons not in m._pc_plus:
        edges = (tree_violation(m, comp, m.component_weights(c), tol)
                 for c, comp in enumerate(m.graph.components))
        edge = next((edge for edge in edges if edge is not None), None)
        m._pc_plus[tol.cons] = edge is None, edge
    return m._pc_plus[tol.cons]


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
