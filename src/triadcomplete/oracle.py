"""Reference implementations, used by the test suite.

The brute-force measures, triad enumeration and intervals recompute from
first principles and deliberately share no enumeration code with the
production modules, so agreement between the two is meaningful
evidence.  The consistent chordal engine fills one entry at a time with
the value its common neighbors force; the product path gets the same
completion from the mt-preserving engine (every feasible interval
collapses at mt = 1), and the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .completion import _chordal_orderings, _fill, _join_components
from .errors import (
    EntrySpecifiedError,
    NeighborDisagreementError,
    NoCommonNeighborError,
    NotPCMError,
    TooLargeError,
)
from .matrices import (
    DEFAULT_TOL,
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
)
from .measures import TriadProduct, is_pcm, mt, triad_sets_for_entry

MAX_CYCLE_N = 8


@dataclass(frozen=True)
class GridSpec:
    """Log-uniform sampling grid with ``points`` values from lo to hi."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if not (0.0 < self.lo < self.hi):
            raise ValueError(f"need 0 < lo < hi, got {self.lo!r}, {self.hi!r}")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")

    def values(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.points)

    @property
    def step_factor(self) -> float:
        """Ratio between consecutive grid points."""
        return (self.hi / self.lo) ** (1.0 / (self.points - 1))


def specified_triads(m: PartialReciprocalMatrix) -> list[TriadProduct]:
    """All triangles whose three entries are specified, one per index triple."""
    e, mask = m.entries, m.mask
    out = []
    for i, j, k in combinations(range(m.n), 3):
        if mask[i, j] and mask[j, k] and mask[i, k]:
            out.append(TriadProduct(i, j, k, float(e[i, j] * e[j, k] * e[k, i])))
    return out


def brute_mt(m: PartialReciprocalMatrix) -> float:
    """Maximum oriented triad product by a direct triple loop."""
    return max([1.0] + [t.max_value for t in specified_triads(m)])


def brute_cycle_products(m: PartialReciprocalMatrix) -> list[tuple[tuple[int, ...], float]]:
    """All fully specified simple cycles (length >= 3) and their products.

    Each cycle appears once, canonicalized to start at its smallest vertex
    and to traverse toward its smaller second endpoint.
    """
    if m.n > MAX_CYCLE_N:
        raise TooLargeError(f"cycle enumeration capped at n = {MAX_CYCLE_N}, got {m.n}")
    e, mask = m.entries, m.mask
    out = []
    for size in range(3, m.n + 1):
        for verts in combinations(range(m.n), size):
            first = verts[0]
            for rest in permutations(verts[1:]):
                if rest[0] > rest[-1]:
                    continue
                cycle = (first,) + rest
                closed = cycle + (first,)
                if all(mask[a, b] for a, b in zip(closed, closed[1:])):
                    product = 1.0
                    for a, b in zip(closed, closed[1:]):
                        product *= float(e[a, b])
                    out.append((cycle, product))
    return out


@dataclass(frozen=True)
class EmpiricalInterval:
    lo: float | None
    hi: float | None
    feasible_count: int
    grid: GridSpec


def grid_interval(
    m: PartialReciprocalMatrix,
    i: int,
    k: int,
    grid: GridSpec,
    tol_cmp: float = 1e-9,
) -> EmpiricalInterval:
    """Empirically locate the values of entry (i, k) that keep mt unchanged.

    For every grid value x the measure of the matrix with (i, k) <- x is
    enumerated directly: triads not through (i, k) are unaffected, and each
    common specified neighbor j contributes the oriented pair s/x and x/s
    with s = a[i, j] * a[j, k].  Grid points whose measure stays within
    ``tol_cmp`` of the reference are reported as [min, max].
    """
    if m.mask[i, k]:
        raise EntrySpecifiedError(i, k)
    reference = brute_mt(m)
    xs = grid.values()
    worst = np.ones_like(xs)
    e, mask = m.entries, m.mask
    for j in range(m.n):
        if j in (i, k) or not (mask[i, j] and mask[j, k]):
            continue
        s = float(e[i, j]) * float(e[j, k])
        np.maximum(worst, np.maximum(s / xs, xs / s), out=worst)
    mt_by_x = np.maximum(worst, reference)
    feasible = xs[mt_by_x <= reference * (1.0 + tol_cmp)]
    if feasible.size == 0:
        return EmpiricalInterval(None, None, 0, grid)
    return EmpiricalInterval(float(feasible.min()), float(feasible.max()), int(feasible.size), grid)


def complete_one_entry_consistent(
    m: PartialReciprocalMatrix, i: int, k: int, tol: Tolerances = DEFAULT_TOL
) -> float:
    """The unique value for (i, k) that keeps the data consistent.

    Requires at least one common specified neighbor j; the value is
    a[i, j] * a[j, k] for the smallest such j, and all neighbors must agree
    on it within ``tol.cons``.
    """
    i, k = (i, k) if i < k else (k, i)
    ts = triad_sets_for_entry(m, i, k)
    if ts.is_unconstrained:
        raise NoCommonNeighborError(i, k)
    x, *rest = ts.s.tolist()
    for s in rest:
        if abs(s / x - 1.0) > tol.cons:
            raise NeighborDisagreementError(i, k, ts.s.tolist())
    return x


def complete_consistent_chordal(
    m: PartialReciprocalMatrix,
    tol: Tolerances = DEFAULT_TOL,
    lowest_first: bool = False,
    join_scale: float = 1.0,
    join_u: int = 0,
    join_v: int = 0,
) -> CompleteReciprocalMatrix:
    """Consistent completion along chordal orderings, one entry at a time.

    Requires all specified triads consistent and every component chordal.
    The completion is unique per connected component (it does not depend on
    the ordering); across components there is a free scale per join, unit
    by default.
    """
    if not is_pcm(m, tol):
        raise NotPCMError(f"specified triads are inconsistent (mt = {mt(m)!r})")
    ordering = _chordal_orderings(m, lowest_first)
    entries = np.array(m.entries)
    for i, k in ordering:
        current = PartialReciprocalMatrix(entries)
        _fill(entries, i, k, complete_one_entry_consistent(current, i, k, tol))
    _join_components(entries, m.graph.components, join_scale, join_u, join_v)
    return CompleteReciprocalMatrix(entries)
