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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ComponentNotChordalError, MatrixError, NotPCPlusError
from .graphs import Edge, SpecGraph, chordal_ordering, connected_components, is_chordal
from .matrices import (
    DEFAULT_TOL,
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
)
from .measures import TriadSets, is_pc_plus, mt, tree_weights, triad_sets_for_entry

SELECTIONS = ("minimax", "midpoint", "lo", "hi")


@dataclass(frozen=True)
class FeasibleInterval:
    """Values for one unspecified entry that leave the mt measure unchanged.

    ``lo = s_max / mt`` and ``hi = mt * s_min``; the minimax point
    ``sqrt(s_max * s_min)`` minimizes the largest new oriented triad
    product, achieving ``sqrt(s_max / s_min)``.  With no constraining
    neighbor the interval is the sentinel (0, inf) with minimax 1.
    """

    lo: float
    hi: float
    minimax: float
    mt_context: float

    @property
    def unconstrained(self) -> bool:
        return self.lo == 0.0

    @property
    def minimax_value(self) -> float:
        """Largest new oriented triad product at the minimax point."""
        if self.unconstrained:
            return 1.0
        return self.mt_context * math.sqrt(self.lo / self.hi)

    @classmethod
    def from_triad_sets(cls, ts: TriadSets, context: float) -> FeasibleInterval:
        """Interval for ``ts.entry`` against the measure ``context``."""
        if ts.is_unconstrained:
            return cls(0.0, math.inf, 1.0, context)
        return cls(ts.s_max / context, context * ts.s_min, math.sqrt(ts.s_max * ts.s_min), context)


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


def feasible_interval(
    m: PartialReciprocalMatrix, i: int, k: int, tol: Tolerances = DEFAULT_TOL
) -> FeasibleInterval:
    """Interval of values for entry (i, k) that keep mt at its current value.

    Meaningful when adding {i, k} is a chordal-ordering step (or the entry
    is the only missing one); non-emptiness is then guaranteed because any
    two constraining products differ by at most mt**2.
    """
    return FeasibleInterval.from_triad_sets(triad_sets_for_entry(m, i, k), mt(m))


def select_value(interval: FeasibleInterval, selection: str) -> float:
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection rule {selection!r}; expected one of {SELECTIONS}")
    if interval.unconstrained:
        return 1.0
    if selection == "minimax":
        return interval.minimax
    if selection == "midpoint":
        return 0.5 * (interval.lo + interval.hi)
    return interval.lo if selection == "lo" else interval.hi


def _fill(entries: np.ndarray, mask: np.ndarray, i: int, k: int, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise MatrixError(f"entry ({i + 1}, {k + 1}): filled value {value!r} is out of range")
    entries[i, k] = value
    entries[k, i] = 1.0 / value
    mask[i, k] = mask[k, i] = True


def _check_components_chordal(g: SpecGraph) -> list[tuple[int, ...]]:
    comps = connected_components(g)
    for comp in comps:
        ok, witness = is_chordal(g.induced(comp))
        if not ok:
            raise ComponentNotChordalError(comp, tuple(comp[v] for v in witness))
    return comps


def _join_components(
    entries: np.ndarray,
    mask: np.ndarray,
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
        raise ValueError(f"join scale must be finite and positive, got {scale!r}")
    joins: list[BlockJoin] = []
    merged = list(comps[0])
    for comp in comps[1:]:
        if not (0 <= u_index < len(merged) and 0 <= v_index < len(comp)):
            raise IndexError("join column index out of range for a block")
        r = merged[u_index]
        s = comp[v_index]
        for i in merged:
            for j in comp:
                value = scale * float(entries[i, r]) * float(entries[s, j])
                _fill(entries, mask, i, j, value)
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
    ok, witness = is_pc_plus(m, tol)
    if not ok:
        raise NotPCPlusError(witness)
    entries = np.array(m.entries)
    mask = np.array(m.mask)
    g = SpecGraph.from_matrix(m)
    comps = connected_components(g)
    for comp in comps:
        w = tree_weights(m, comp)
        for i, j in combinations(comp, 2):
            if not mask[i, j]:
                _fill(entries, mask, i, j, w[i] / w[j])
    _join_components(entries, mask, comps, join_scale, join_u, join_v)
    return PartialReciprocalMatrix(entries, mask).to_complete()


def join_blocks(
    a: CompleteReciprocalMatrix,
    b: CompleteReciprocalMatrix,
    u_col: int = 0,
    v_col: int = 0,
    k: float = 1.0,
) -> CompleteReciprocalMatrix:
    """Stack two complete blocks with off-diagonal block k * u * (1/v)^T.

    ``u`` is column ``u_col`` of ``a`` and ``v`` column ``v_col`` of ``b``.
    The result's measure equals the larger of the blocks' measures, and the
    result is consistent whenever both blocks are.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"scale k must be finite and positive, got {k!r}")
    if not 0 <= u_col < a.n:
        raise IndexError(f"u_col {u_col} out of range for a {a.n}x{a.n} block")
    if not 0 <= v_col < b.n:
        raise IndexError(f"v_col {v_col} out of range for a {b.n}x{b.n} block")
    n1, n2 = a.n, b.n
    entries = np.empty((n1 + n2, n1 + n2))
    entries[:n1, :n1] = a.entries
    entries[n1:, n1:] = b.entries
    cross = k * np.outer(a.entries[:, u_col], 1.0 / b.entries[:, v_col])
    entries[:n1, n1:] = cross
    entries[n1:, :n1] = (1.0 / cross).T
    return PartialReciprocalMatrix(entries, np.ones_like(entries, dtype=bool)).to_complete()


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
    ordering; each step draws its value from the feasible interval computed
    against the evolving partial matrix's current measure (the previous
    step's after-fill check), so the measure is preserved step by step.
    Disconnected components are joined with a rank-one block (defaults:
    first columns, unit scale).
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection rule {selection!r}; expected one of {SELECTIONS}")
    g = SpecGraph.from_matrix(m)
    comps = _check_components_chordal(g)
    entries = np.array(m.entries)
    mask = np.array(m.mask)
    steps: list[CompletionStep] = []
    current, context = m, mt(m)
    for comp in comps:
        for a, b in chordal_ordering(g.induced(comp)):
            i, k = comp[a], comp[b]
            ts = triad_sets_for_entry(current, i, k)
            # Chord-forcing check: common neighbors of a chordal-step edge are
            # pairwise adjacent, which bounds the spread of the products.
            neighbors = [j for j, _ in ts.s]
            if not mask[np.ix_(neighbors, neighbors)].all():
                raise AssertionError(f"common neighbors of {(i, k)} are not pairwise adjacent")
            interval = FeasibleInterval.from_triad_sets(ts, context)
            if not interval.lo <= interval.hi * (1.0 + tol.cmp):
                raise AssertionError(f"empty feasible interval at {(i, k)}: {interval}")
            value = select_value(interval, selection)
            _fill(entries, mask, i, k, value)
            current = PartialReciprocalMatrix(entries, mask)
            after = mt(current)
            if not after <= context * (1.0 + tol.cmp):
                raise AssertionError(f"measure increased at {(i, k)}: {context} -> {after}")
            steps.append(CompletionStep((i, k), interval, value, context, after))
            context = after
    joins = _join_components(entries, mask, comps, join_scale, join_u, join_v)
    result = PartialReciprocalMatrix(entries, mask).to_complete()
    return CompletionReport(tuple(steps), tuple(joins), result)
