"""Triad scan and inconsistency measures.

The central measure is the maximum 3-cycle product over fully specified triads,
written ``mt`` here.  It is 1 exactly when every specified triad is consistent,
and it applies unchanged to partial matrices (defaulting to 1 when no triad is
fully specified).  :func:`triad_scan` reads the :class:`TriadTables` that the
one full scan builds and a changed pair updates in O(n^2); one function,
:func:`_middle_products`, forms every triad product for both and for
:func:`mt_pass`: a table per middle with a long row, O(n) per specified entry,
and the specified triples of the short rows gathered a bounded chunk at a time,
so a sparse scan costs its triples.  On the fill path :func:`new_triads_mt`
forms the six oriented products of each new triad in float arithmetic, grouped
``(a * b) * c`` alike and so bitwise a rescan (a Python float multiply rounds as
numpy's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MatrixError
from .graphs import Edge, bfs_parents
from .matrices import DEFAULT_TOL, PartialReciprocalMatrix, Tolerances


@dataclass(frozen=True)
class TriadScan:
    """What :func:`triad_scan` finds: ``worst`` is ``((a, b, c), product)``, the worst triad's
    3-cycle a -> b -> c -> a with the larger product, or None with no fully specified triad;
    ``count`` is the number of fully specified triads."""

    mt: float
    pcm: bool
    worst: tuple[tuple[int, int, int], float] | None
    tie: bool
    count: int

    @property
    def koczkodaj(self) -> float:
        """Koczkodaj's index 1 - 1/mt, in [0, 1); 0 for (partially) consistent data."""
        return 1.0 - 1.0 / self.mt


def triad_scan(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> TriadScan:
    """mt, the worst triad, its tie flag and the count, read from ``m``'s :class:`TriadTables`.

    The worst triad is ``((a, b, c), product)``, the 3-cycle a -> b -> c -> a with the larger
    product, or None.

    An overflowing product (or reciprocal) raises :class:`MatrixError` naming the triad, one-based.
    """
    return TriadTables(m.entries).scan(tol)


class TriadTables:
    """Two n x n tables of a full triad scan, kept in step as one pair at a time changes.

    Every middle j's products ``prods_j[k, i]`` come from :func:`_middle_products`, for the
    build (as a table, NaN poisoning exactly the incomplete triads, or as gathered specified
    triples), an update and the overflow message.  ``mid[j, i]`` is the largest over k of
    ``prods_j[k, i]`` (mt is the largest ``mid``; NaN with no triad) and ``row_peak[i, j]``
    the largest max(v, 1/v) over the triads i < j < k, v = ``prods_j[k, i]``; closeness to the
    peak grows with the value, so the first close row holds the worst triad.  A changed pair
    (a, b) moves only middles a and b and rows a and b, an n x n array each: an update is
    O(n^2) and bitwise a rescan, overflow included.  ``entries`` is not copied.
    """

    def __init__(self, entries: np.ndarray) -> None:
        e, n = entries, entries.shape[0]
        self.entries, self.mid, self.row_peak = e, np.full((n, n), -math.inf), np.zeros((n, n))
        with np.errstate(over="ignore", divide="ignore"):
            for (j, k, i), prods in _scan_middles(e):
                if i is None:  # middle j's table over the ascending k: rows may be none
                    np.fmax.reduce(prods, axis=0, out=self.mid[j], initial=math.nan)
                    _peaks(prods[np.searchsorted(k, j, "right") :, :j], self.row_peak[:j, j])
                    continue
                np.maximum.at(self.mid.ravel(), j * n + i, prods)  # no NaN among them
                up = np.flatnonzero((i < j) & (j < k))
                prods = prods.take(up)  # max fl(1/v) is fl(1/min v): 1/x is monotone
                np.maximum.at(self.row_peak.ravel(), i.take(up) * n + j.take(up),
                              np.fmax(prods, 1.0 / prods))
        self.mid[self.mid == -math.inf] = math.nan  # a gathered middle's (j, i) with no triad
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

    def cleared(self, a: int, b: int) -> float:
        """The mt with (a, b) and (b, a) unspecified, via scratch copies of ``entries`` and mid."""
        e, mid = self.entries.copy(), self.mid.copy()
        e[a, b] = e[b, a] = math.nan
        self._update(e, mid, a, b, peaks=False)
        return float(np.fmax.reduce(mid, axis=None, initial=1.0))

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
        v, k = float(vals[hits[0]]), j + 1 + int(hits[0])
        worst = ((i, j, k), v) if v >= 1.0 / v else ((k, j, i), 1.0 / v)
        tie = len(rows) > 1 or len(hits) > 1 or abs(min(v, 1.0 / v) / peak - 1.0) <= tol.cmp
        return TriadScan(best, best <= 1.0 + tol.cons, worst, tie, self.count)


def _middle_products(e, e_t, j, k=slice(None), i=None, out=None) -> np.ndarray:
    """Triad products ``(e[j,k] * e[i,j]) * e[k,i]``, ``e_t`` being e.T: for an int j and no
    i, middle j's table ``[k, i]`` over rows k and every i; for index arrays j, k and i, the
    gathered triples."""
    if i is None:
        jk, ij, ki = e[j, k, None], e_t[j], e[k]
    else:  # flat indices: a gather along one axis is the fastest
        n = len(e)
        jk, ij, ki = e.take(j * n + k), e_t.take(j * n + i), e.take(k * n + i)
    prods = np.multiply(jk, ij, out=out)
    return np.multiply(prods, ki, out=prods)


GATHER_BUDGET = 1 << 14  # triples per gathered chunk


def _scan_middles(e: np.ndarray):
    """Every middle's products: ``((j, ks, None), table)`` for each middle j whose row is long
    enough to form as a table over its ascending specified ks, then ``((J, K, I), products)``
    for the other middles' specified triples, gathered at most ``GATHER_BUDGET`` at a time."""
    n, spec = len(e), ~np.isnan(e)
    e_t, buf = np.ascontiguousarray(e.T), np.empty(e.shape)  # the next j reuses the buffer
    width, height = np.count_nonzero(spec, axis=1), np.count_nonzero(spec, axis=0)
    # A table costs about n / 4 gathered triples per row, plus 256 for its numpy calls.
    table = (width == n) | (4 * width * height > width * n + 1024)
    for j in np.flatnonzero(table).tolist():
        ks = np.flatnonzero(spec[j])
        rows = slice(None) if len(ks) == n else ks  # a full row needs no copies
        yield (j, ks, None), _middle_products(e, e_t, j, rows, out=buf[: len(ks)])
    if table.all():
        return
    js, ks = np.nonzero(spec & ~table[:, None])  # the (j, k) of the gathered middles
    i_of = np.nonzero(spec.T)[1]  # per j, ascending, the i with e[i, j] specified
    first, reps = np.cumsum(height) - height, height[js]
    ends, flat = np.cumsum(reps), spec.ravel()
    lo = 0
    while lo < len(js):
        hi = max(int(np.searchsorted(ends, ends[lo] - reps[lo] + GATHER_BUDGET, "right")), lo + 1)
        r = reps[lo:hi]
        at = np.repeat(first[js[lo:hi]] - (np.cumsum(r) - r), r) + np.arange(int(r.sum()))
        j, k, i = np.repeat(js[lo:hi], r), np.repeat(ks[lo:hi], r), i_of[at]
        keep = np.flatnonzero(flat.take(k * n + i))  # (k, i) specified too
        j, k, i = j.take(keep), k.take(keep), i.take(keep)
        yield (j, k, i), _middle_products(e, e_t, j, k, i)
        lo = hi


def _peaks(v: np.ndarray, out: np.ndarray, where=True) -> None:  # column maxima of max(v, 1/v)
    low = np.fmin.reduce(v, axis=0, initial=math.inf, where=where)
    np.fmax(np.fmax.reduce(v, axis=0, initial=0.0, where=where), 1.0 / low, out=out)


def new_triads_mt(x: float, ij, jk, kj, ji, where) -> float:
    """Largest oriented product of the triads {i, j, k}, j in J, once (i, k) holds x, (k, i) 1 / x.

    ``ij, jk, kj, ji`` list the floats at [i, J], [J, k], [k, J] and [J, i]; with J the common
    neighbors these are all the new triads, so the mt after the fill is ``max(mt before, this)``.
    Each product is ``(e[p,m] * e[m,q]) * e[q,p]``, m the middle, as in :func:`triad_scan`, and a
    Python float multiply rounds as numpy's, so the two agree bit for bit.  An overflow (or an
    underflow to 0) hands over to a full scan of these triads alone, placed by ``where = (n, i,
    k, J)`` in an n x n matrix: every other triad is finite, so the scan names the triad that a
    scan of the whole filled matrix names.
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
        n, i, k, js = where
        e = np.full((n, n), math.nan)
        e[i, js], e[js, k], e[k, js], e[js, i], e[i, k], e[k, i] = ij, jk, kj, ji, x, y
        return triad_scan(PartialReciprocalMatrix(e)).mt
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
        for _, prods in _scan_middles(m.entries):
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
