"""Inconsistency reduction for complete reciprocal matrices.

One step finds the worst oriented triad, clears one of its entries and
refills it with the completion engine's checked fill step at its minimax
value, so the interval's context is the mt without that entry and every
candidate passes the engine's three checks.  The candidate with the lowest
resulting measure wins.  The measure never increases; with a unique worst
triad it strictly decreases, so iteration drives it down one entry change
at a time.  :func:`reduce` builds its input's :class:`TriadTables` once
(O(n^3)); a candidate's context and an applied step are O(n^2) updates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import FeasibleInterval, _fill_step
from .errors import MatrixTooSmallError
from .graphs import Edge
from .matrices import DEFAULT_TOL, CompleteReciprocalMatrix, Tolerances
from .measures import TriadTables

EDGE_RULES = ("best", "paper")

STOP_TARGET = "target_reached"
STOP_MAX_STEPS = "max_steps"
STOP_TIE = "tie"
STOP_NO_DECREASE = "no_decrease"


@dataclass(frozen=True)
class ReductionStep:
    edge: Edge
    old_value: float
    new_value: float
    interval: FeasibleInterval
    mt_before: float
    mt_after: float
    tie: bool


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    stop_reason: str
    result: CompleteReciprocalMatrix
    mt_initial: float

    @property
    def mt_final(self) -> float:
        return self.steps[-1].mt_after if self.steps else self.mt_initial


def reduce_step(
    m: CompleteReciprocalMatrix,
    tol: Tolerances = DEFAULT_TOL,
    edge_rule: str = "best",
) -> tuple[CompleteReciprocalMatrix, ReductionStep]:
    """Clear one entry of the worst triad and refill it by the engine's checked fill step.

    With ``edge_rule="best"`` all three edges of the worst triad are tried
    and the candidate with the lowest resulting measure wins (ties to the
    lexicographically smallest edge).  ``edge_rule="paper"`` re-solves only
    the (min, max) entry of the triad.
    """
    tables = TriadTables(m.entries.copy())
    step = _step(tables, tol, edge_rule)
    tables.set(*step.edge, step.new_value)
    return CompleteReciprocalMatrix(tables.entries), step


def _step(tables: TriadTables, tol: Tolerances, edge_rule: str) -> ReductionStep:
    """:func:`reduce_step` on the tables' matrix, which is left as it is."""
    if len(tables.entries) < 3:
        raise MatrixTooSmallError(f"need n >= 3, got n = {len(tables.entries)}")
    if edge_rule not in EDGE_RULES:
        raise ValueError(f"unknown edge rule {edge_rule!r}; expected one of {EDGE_RULES}")
    scan = tables.scan(tol)
    i, j, k = scan.worst.i, scan.worst.j, scan.worst.k
    fills, e, n = [], tables.entries, len(tables.entries)
    for a, b in [(i, k)] if edge_rule == "paper" else [(i, j), (i, k), (j, k)]:
        bits = [(1 << n) - 1] * n  # the complete graph less {a, b}
        bits[a], bits[b] = bits[a] ^ 1 << b, bits[b] ^ 1 << a
        rows = {a: e[a].tolist(), b: e[b].tolist()}  # all that the fill step reads
        cols = {a: e[:, a].tolist(), b: e[:, b].tolist()}
        fills.append(_fill_step(rows, cols, bits, a, b, tables.cleared(a, b), "minimax", tol))
    fill = min(fills, key=lambda f: (f.mt_after, f.edge))
    return ReductionStep(fill.edge, float(tables.entries[fill.edge]), fill.value, fill.interval,
                         scan.mt, fill.mt_after, scan.tie)


def reduce(
    m: CompleteReciprocalMatrix,
    target_mt: float = 1.0,
    max_steps: int = 32,
    tol: Tolerances = DEFAULT_TOL,
    edge_rule: str = "best",
) -> ReductionTrace:
    """Iterate reduce_step until the target, the step budget, or a stall.

    A step is applied only when it lowers the measure on the target test's
    scale, ``mt_after * (1 + tol.cmp) < mt``; a step that cannot (the worst
    product is tied across triads that share no repairable entry) stops the
    loop with the tie reported, so entry changes are never wasted.
    """
    if not target_mt >= 1.0:
        raise ValueError(f"--target-mt: target_mt must be >= 1, got {target_mt!r}")
    if max_steps < 0:
        raise ValueError(f"--max-steps: max_steps must be >= 0, got {max_steps!r}")
    tables = TriadTables(m.entries.copy())
    mt_initial = mt_now = tables.scan(tol).mt
    steps: list[ReductionStep] = []
    while True:
        if mt_now <= target_mt * (1.0 + tol.cmp):
            reason = STOP_TARGET
            break
        if len(steps) >= max_steps:
            reason = STOP_MAX_STEPS
            break
        step = _step(tables, tol, edge_rule)
        if step.mt_after * (1.0 + tol.cmp) < mt_now:
            tables.set(*step.edge, step.new_value)
            mt_now = step.mt_after
            steps.append(step)
            continue
        reason = STOP_TIE if step.tie else STOP_NO_DECREASE
        break
    result = CompleteReciprocalMatrix(tables.entries)
    return ReductionTrace(tuple(steps), reason, result, mt_initial)
