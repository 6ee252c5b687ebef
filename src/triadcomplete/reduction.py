"""Inconsistency reduction for complete reciprocal matrices.

One step finds the worst oriented triad, re-solves one of its entries
through the feasible-interval machinery, and keeps the candidate with the
lowest resulting measure.  The measure never increases; with a unique
worst triad it strictly decreases, so iteration drives it down one entry
change at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import FeasibleInterval, feasible_interval
from .errors import MatrixTooSmallError
from .graphs import Edge
from .matrices import DEFAULT_TOL, CompleteReciprocalMatrix, Tolerances
from .measures import TriadProduct, max_triad, mt

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


def worst_triad(
    m: CompleteReciprocalMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[TriadProduct, bool]:
    """Triad with the maximum oriented product, plus a tie flag.

    The flag is set when another oriented product lies within ``tol.cmp``
    of the maximum; ties break to the lexicographically smallest triple.
    """
    if m.n < 3:
        raise MatrixTooSmallError(f"need n >= 3, got n = {m.n}")
    triad, tie = max_triad(m, tol)
    if triad is None:
        raise AssertionError("a complete matrix with n >= 3 has no triads")
    return triad, tie


def reduce_step(
    m: CompleteReciprocalMatrix,
    tol: Tolerances = DEFAULT_TOL,
    edge_rule: str = "best",
) -> tuple[CompleteReciprocalMatrix, ReductionStep]:
    """Re-solve one entry of the worst triad; never increases the measure.

    With ``edge_rule="best"`` all three edges of the worst triad are tried
    and the candidate with the lowest resulting measure wins (ties to the
    lexicographically smallest edge).  ``edge_rule="paper"`` re-solves only
    the (min, max) entry of the triad.
    """
    if edge_rule not in EDGE_RULES:
        raise ValueError(f"unknown edge rule {edge_rule!r}; expected one of {EDGE_RULES}")
    triad, tie = worst_triad(m, tol)
    i, j, k = triad.i, triad.j, triad.k
    edges = [(i, k)] if edge_rule == "paper" else [(i, j), (i, k), (j, k)]
    mt_before = mt(m)
    best: tuple[float, Edge, CompleteReciprocalMatrix, FeasibleInterval, float] | None = None
    for edge in edges:
        masked = m.without_entry(*edge)
        interval = feasible_interval(masked, *edge, tol)
        value = interval.minimax if not interval.unconstrained else 1.0
        candidate = masked.with_entry(*edge, value).to_complete()
        key = (mt(candidate), edge)
        if best is None or key < (best[0], best[1]):
            best = (key[0], edge, candidate, interval, value)
    mt_after, edge, candidate, interval, value = best
    step = ReductionStep(
        edge=edge,
        old_value=float(m.entries[edge]),
        new_value=value,
        interval=interval,
        mt_before=mt_before,
        mt_after=mt_after,
        tie=tie,
    )
    return candidate, step


def reduce(
    m: CompleteReciprocalMatrix,
    target_mt: float = 1.0,
    max_steps: int = 32,
    tol: Tolerances = DEFAULT_TOL,
    edge_rule: str = "best",
) -> ReductionTrace:
    """Iterate reduce_step until the target, the step budget, or a stall.

    A step is applied only when it strictly decreases the measure; a step
    that cannot (the worst product is tied across triads that share no
    repairable entry) stops the loop with the tie reported, so entry
    changes are never wasted.
    """
    if not target_mt >= 1.0:
        raise ValueError(f"target_mt must be >= 1, got {target_mt!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    current = m
    mt_current = mt(current)
    mt_initial = mt_current
    steps: list[ReductionStep] = []
    while True:
        if mt_current <= target_mt * (1.0 + tol.cmp):
            reason = STOP_TARGET
            break
        if len(steps) >= max_steps:
            reason = STOP_MAX_STEPS
            break
        candidate, step = reduce_step(current, tol, edge_rule)
        if step.mt_after < mt_current * (1.0 - tol.cmp):
            current = candidate
            mt_current = step.mt_after
            steps.append(step)
            continue
        reason = STOP_TIE if step.tie else STOP_NO_DECREASE
        break
    return ReductionTrace(tuple(steps), reason, current, mt_initial)
