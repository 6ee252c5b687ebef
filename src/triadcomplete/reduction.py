"""Inconsistency reduction for complete reciprocal matrices.

One step finds the worst oriented triad, clears one of its entries and
refills it with the completion engine's checked fill step at its minimax
value, so the interval's context is the mt without that entry and every
candidate passes the engine's three checks.  The candidate with the lowest
resulting measure wins.  The measure never increases; with a unique worst
triad it strictly decreases, so iteration drives it down one entry change
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import FeasibleInterval, _fill_step
from .errors import MatrixTooSmallError
from .graphs import Edge
from .matrices import DEFAULT_TOL, CompleteReciprocalMatrix, Tolerances
from .measures import mt, triad_scan

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
    if m.n < 3:
        raise MatrixTooSmallError(f"need n >= 3, got n = {m.n}")
    if edge_rule not in EDGE_RULES:
        raise ValueError(f"unknown edge rule {edge_rule!r}; expected one of {EDGE_RULES}")
    scan = triad_scan(m, tol)
    i, j, k = scan.worst.i, scan.worst.j, scan.worst.k
    tried = []
    for a, b in [(i, k)] if edge_rule == "paper" else [(i, j), (i, k), (j, k)]:
        cleared = m.without_entry(a, b)
        entries = cleared.entries.copy()
        context = mt(cleared)
        tried.append((_fill_step(entries, a, b, context, "minimax", tol), entries))
    fill, entries = min(tried, key=lambda t: (t[0].mt_after, t[0].edge))
    step = ReductionStep(fill.edge, float(m.entries[fill.edge]), fill.value, fill.interval,
                         scan.mt, fill.mt_after, scan.tie)
    return CompleteReciprocalMatrix(entries), step


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
        raise ValueError(f"target_mt must be >= 1, got {target_mt!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    current, mt_initial = m, mt(m)
    mt_now = mt_initial
    steps: list[ReductionStep] = []
    while True:
        if mt_now <= target_mt * (1.0 + tol.cmp):
            reason = STOP_TARGET
            break
        if len(steps) >= max_steps:
            reason = STOP_MAX_STEPS
            break
        candidate, step = reduce_step(current, tol, edge_rule)
        if step.mt_after * (1.0 + tol.cmp) < mt_now:
            current, mt_now = candidate, step.mt_after
            steps.append(step)
            continue
        reason = STOP_TIE if step.tie else STOP_NO_DECREASE
        break
    return ReductionTrace(tuple(steps), reason, current, mt_initial)
