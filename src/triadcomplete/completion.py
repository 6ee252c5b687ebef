"""Completion engines for partial reciprocal matrices.

Three regimes are covered:

* completion that provably does not increase the maximum triad product,
  for chordal components, by confining each filled entry to its feasible
  interval ``[s_max / mt, mt * s_min]``; when all specified triads are
  consistent (mt = 1) every interval collapses to the one consistent
  value, so this is also the consistent completion of a chordal PCM;
* consistent completion via spanning-tree weights when every specified
  cycle product equals 1, on any graph;
* joining disjoint diagonal blocks with a scaled rank-one off-diagonal
  block, which keeps the measure at the maximum of the blocks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EntrySpecifiedError, MatrixError, NotPCPlusError
from .graphs import Edge, chordal_ordering, members
from .matrices import (
    DEFAULT_TOL,
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
)
from .measures import is_pc_plus, mt, new_triads_mt

SELECTIONS = ("minimax", "midpoint", "lo", "hi")


@dataclass(frozen=True)
class FeasibleInterval:
    """Values for one unspecified entry that leave the mt measure unchanged.

    ``lo = s_max / mt`` and ``hi = mt * s_min``; the minimax point
    ``sqrt(s_max * s_min)`` (rooted factor by factor when the product is
    not a normal double) minimizes the largest new oriented triad product,
    achieving ``sqrt(s_max / s_min)``.  With no constraining neighbor the
    interval is the sentinel (0, inf) with minimax 1.
    """

    lo: float
    hi: float
    minimax: float
    mt_context: float

    @property
    def unconstrained(self) -> bool:
        return self.lo == 0.0 and self.hi == math.inf

    @classmethod
    def of(cls, s_min: float | None, s_max: float | None, context: float) -> FeasibleInterval:
        """Interval for products ``a[i,j] * a[j,k]`` in [s_min, s_max], or None for no neighbor."""
        if s_min is None:
            return cls(0.0, math.inf, 1.0, context)
        product = s_max * s_min
        normal = sys.float_info.min <= product < math.inf  # else lost bits, or no root
        minimax = math.sqrt(product) if normal else math.sqrt(s_max) * math.sqrt(s_min)
        return cls(s_max / context, context * s_min, minimax, context)


@dataclass(frozen=True)
class CompletionStep:
    edge: Edge
    interval: FeasibleInterval
    value: float
    mt_before: float
    mt_after: float


@dataclass(frozen=True)
class BlockJoin:
    """Record of one cross-component fill: C = scale * u * (1/v)^T."""

    block_a: tuple[int, ...]
    block_b: tuple[int, ...]
    u_vertex: int
    v_vertex: int
    scale: float


@dataclass(frozen=True)
class CompletionReport:
    steps: tuple[CompletionStep, ...]
    joins: tuple[BlockJoin, ...]
    result: CompleteReciprocalMatrix


def feasible_interval(m: PartialReciprocalMatrix, i: int, k: int) -> FeasibleInterval:
    """Interval of values for entry (i, k), i < k, that keep mt at its current value.

    The fill step's interval (:func:`_interval`), from the common neighbors in ``m.graph`` and
    ``mt(m)``; (k, i) gives the same.  Meaningful when adding {i, k} is a chordal-ordering step
    (or the entry is the only missing one); non-emptiness is then guaranteed because any two
    constraining products differ by at most mt**2.  An index outside ``0..n-1`` or on the
    diagonal raises :class:`MatrixError` as ``with_entry`` does, a specified entry
    :class:`EntrySpecifiedError`, and a product out of normal range the fill step's error.
    """
    m._check_pair(i, k, "fill")
    i, k = (i, k) if i < k else (k, i)
    bits = m.graph.bits
    if bits[i] >> k & 1:
        raise EntrySpecifiedError(i, k)
    return _interval(m.entries, i, k, members(bits[i] & bits[k]), mt(m))[0]


def select_value(interval: FeasibleInterval, selection: str) -> float:
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection rule {selection!r}; expected one of {SELECTIONS}")
    if interval.unconstrained:
        return 1.0
    if selection == "minimax":
        return interval.minimax
    if selection == "midpoint":
        return 0.5 * interval.lo + 0.5 * interval.hi  # no overflow near the top of the range
    return interval.lo if selection == "lo" else interval.hi


def _fill(entries: np.ndarray, i, k, value) -> None:
    """Write ``value`` over the NaN at (i, k) and ``1 / value`` at (k, i); all may be arrays.

    The first value out of (0, inf), row-major, raises MatrixError naming its entry.
    """
    ok = np.greater(value, 0.0) & np.less(value, math.inf)
    if not ok.all():
        first = int(np.argmin(ok))
        i, k, value = (np.broadcast_to(a, ok.shape).flat[first] for a in (i, k, value))
        raise _out_of_range(int(i), int(k), float(value))
    entries[i, k] = value
    entries[k, i] = 1.0 / value


def _out_of_range(i: int, k: int, value: float) -> MatrixError:
    return MatrixError(f"entry ({i + 1}, {k + 1}): filled value {value!r} is out of range")


def _join_components(
    entries: np.ndarray,
    comps,
    scale: float = 1.0,
    u_index: int = 0,
    v_index: int = 0,
) -> list[BlockJoin]:
    """Fill all cross-component entries, merging components left to right.

    The off-diagonal block between the merged part and the next component
    is ``scale * u * (1/v)^T`` with u the merged block's column at its
    ``u_index``-th vertex and v the new block's column at its ``v_index``-th
    vertex.  Every mixed triad product then collapses onto a product from a
    single block, so the measure stays at the maximum over the blocks.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"--join-k: join scale must be finite and positive, got {scale!r}")
    joins: list[BlockJoin] = []
    merged = list(comps[0])
    for comp in comps[1:]:
        if not (0 <= u_index < len(merged) and 0 <= v_index < len(comp)):
            raise IndexError("join column index out of range for a block")
        r = merged[u_index]
        s = comp[v_index]
        rows, cols = np.array(merged), np.array(comp)
        with np.errstate(over="ignore"):
            block = np.multiply.outer(scale * entries[rows, r], entries[s, cols])
            _fill(entries, rows[:, None], cols, block)
        joins.append(BlockJoin(tuple(merged), tuple(comp), r, s, scale))
        merged = sorted(merged + list(comp))
    return joins


def complete_consistent_pc_plus(
    m: PartialReciprocalMatrix,
    tol: Tolerances = DEFAULT_TOL,
    join_scale: float = 1.0,
    join_u: int = 0,
    join_v: int = 0,
) -> CompleteReciprocalMatrix:
    """Consistent completion from spanning-tree weights, for any graph.

    Requires every fully specified cycle product to equal 1.  Within each
    component the completion w[i] / w[j] is unique and agrees with all
    specified entries; across components there is a free scale per join,
    unit by default.
    """
    pc_plus, witness = is_pc_plus(m, tol)
    if not pc_plus:
        raise NotPCPlusError(witness)
    comps = m.graph.components
    entries = np.array(m.entries)
    for c, comp in enumerate(comps):
        v, wv = np.array(comp), m.component_weights(c)
        a, b = np.nonzero(np.triu(np.isnan(entries[np.ix_(v, v)]), 1))  # unspecified, row-major
        with np.errstate(over="ignore"):
            _fill(entries, v[a], v[b], wv[a] / wv[b])
    _join_components(entries, comps, join_scale, join_u, join_v)
    return CompleteReciprocalMatrix(entries)


def join_blocks(
    a: CompleteReciprocalMatrix,
    b: CompleteReciprocalMatrix,
    u_col: int = 0,
    v_col: int = 0,
    k: float = 1.0,
) -> CompleteReciprocalMatrix:
    """Stack two complete blocks with off-diagonal block k * u * (1/v)^T.

    ``u`` is column ``u_col`` of ``a`` and ``v`` column ``v_col`` of ``b``:
    the join of :func:`_join_components`.  The result's measure equals the
    larger of the blocks' measures, and it is consistent when both blocks are.
    """
    n1, n = a.n, a.n + b.n
    entries = np.full((n, n), np.nan)
    entries[:n1, :n1], entries[n1:, n1:] = a.entries, b.entries
    _join_components(entries, [range(n1), range(n1, n)], k, u_col, v_col)
    return CompleteReciprocalMatrix(entries)


def _interval(entries: np.ndarray, i: int, k: int, js: list[int], context: float):
    """Interval of the NaN (i, k) against ``context``, and the lists [i, J], [J, k], [k, J], [J, i].

    J is ``js``, the common neighbors.  Rows and columns i and k are read once as Python floats;
    all else is float arithmetic, which rounds as numpy's float64 does.  A product
    ``a[i,j]·a[j,k]`` that is not a normal double (an interval-end fill can make one; a
    subnormal one has lost bits) raises :class:`MatrixError` naming the entry and that j.
    """
    rows = entries[i].tolist(), entries[:, k].tolist(), entries[k].tolist(), entries[:, i].tolist()
    ij, jk, kj, ji = ([row[j] for j in js] for row in rows)
    s = [a * b for a, b in zip(ij, jk)]
    s_min, s_max = (min(s), max(s)) if s else (None, None)
    if s and not (sys.float_info.min <= s_min and s_max < math.inf):
        j = next(j for j, p in zip(js, s) if not sys.float_info.min <= p < math.inf)
        raise MatrixError(f"entry ({i + 1}, {k + 1}): product through {j + 1} is out of range")
    return FeasibleInterval.of(s_min, s_max, context), (ij, jk, kj, ji)


def _fill_step(
    entries: np.ndarray, bits: list[int], i, k, context: float, selection: str, tol: Tolerances
) -> CompletionStep:
    """Fill the NaN (i, k), i < k, of ``entries`` in place; ``context`` is its mt before.

    ``bits`` (as ``SpecGraph.bits``) gives the common neighbors J and gains {i, k}.  The value
    comes from :func:`_interval`, the step's one numpy read, and the rest is float arithmetic,
    so the bytes are a numpy step's.  Three checks run under ``python -O`` too: the common
    neighbors are pairwise adjacent, the interval is non-empty and mt is not raised
    (``mt_after`` is a rescan's bits).
    """
    common = bits[i] & bits[k]
    js = members(common)
    # Chord-forcing check: common neighbors form a clique, bounding the products' spread.
    if not all(bits[j] & common == common for j in js):
        raise AssertionError(f"common neighbors of {(i, k)} are not pairwise adjacent")
    interval, (ij, jk, kj, ji) = _interval(entries, i, k, js, context)
    if not interval.lo <= interval.hi * (1.0 + tol.cmp):
        raise AssertionError(f"empty feasible interval at {(i, k)}: {interval}")
    value = select_value(interval, selection)
    if not 0.0 < value < math.inf:
        raise _out_of_range(i, k, value)
    entries[i, k], entries[k, i] = value, 1.0 / value
    bits[i], bits[k] = bits[i] | 1 << k, bits[k] | 1 << i
    after = max(context, new_triads_mt(entries, value, ij, jk, kj, ji))
    if not after <= context * (1.0 + tol.cmp):
        raise AssertionError(f"measure increased at {(i, k)}: {context} -> {after}")
    return CompletionStep((i, k), interval, value, context, after)


def complete_mt_preserving(
    m: PartialReciprocalMatrix,
    selection: str = "minimax",
    tol: Tolerances = DEFAULT_TOL,
    join_scale: float = 1.0,
    join_u: int = 0,
    join_v: int = 0,
) -> CompletionReport:
    """Complete so the maximum triad product does not increase.

    Requires every component chordal.  Entries are filled along a chordal
    ordering; each step draws its value from the feasible interval against
    the current measure, and its after-fill check forms only the triads
    through the common neighbors (:func:`new_triads_mt`), exactly.
    Disconnected components are joined with a rank-one block (defaults:
    first columns, unit scale).
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection rule {selection!r}; expected one of {SELECTIONS}")
    entries, bits = np.array(m.entries), list(m.graph.bits)
    steps: list[CompletionStep] = []
    context = mt(m)
    for i, k in chordal_ordering(m.graph):
        steps.append(_fill_step(entries, bits, i, k, context, selection, tol))
        context = steps[-1].mt_after
    joins = _join_components(entries, m.graph.components, join_scale, join_u, join_v)
    return CompletionReport(tuple(steps), tuple(joins), CompleteReciprocalMatrix(entries))
