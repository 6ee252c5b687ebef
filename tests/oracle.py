"""Reference implementations and the errors only they raise, used by the test suite.

The brute-force measures, triad enumeration, S sets and intervals
recompute from first principles and deliberately share no enumeration
code with the package, so agreement between the two is meaningful
evidence.  The consistent chordal engine fills one entry at a time with
the value its common neighbors force; the package gets the same
completion from the mt-preserving engine (every feasible interval
collapses at mt = 1), and the tests compare the two.  The per-cell
formatter is the one ``fileio.format_rows`` replaced: it writes each cell
on its own, with no de-duplication of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from triadcomplete.completion import _join_components
from triadcomplete.errors import CompletionError, EntrySpecifiedError, MatrixError
from triadcomplete.fileio import UNSPECIFIED, Cells
from triadcomplete.graphs import chordal_ordering
from triadcomplete.matrices import (
    DEFAULT_TOL,
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
)
from triadcomplete.measures import TriadProduct, is_pcm, mt

MAX_CYCLE_N = 8


class NotConsistentError(MatrixError):
    """The matrix is not consistent where consistency is required."""


class NotPCMError(CompletionError):
    """Some fully specified triad product differs from 1."""


class NoCommonNeighborError(CompletionError):
    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"no common specified neighbor for entry ({i + 1}, {j + 1})")
        self.i, self.j = i, j


class NeighborDisagreementError(CompletionError):
    def __init__(self, i: int, j: int, products) -> None:
        super().__init__(
            f"common neighbors disagree on the consistent value for entry"
            f" ({i + 1}, {j + 1}): candidate products {list(products)}"
        )
        self.i, self.j = i, j
        self.products = tuple(products)


class TooLargeError(ValueError):
    """Brute-force enumeration refused for matrices this large."""


def rank_one_vector(m: CompleteReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positive w with m == outer(w, 1/w) and w[0] == 1: a consistent matrix's first column."""
    if not is_pcm(m, tol):
        raise NotConsistentError("matrix is not consistent; no rank-one vector exists")
    return np.array(m.entries[:, 0] / m.entries[0, 0])


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


def constraint_products(m: PartialReciprocalMatrix, i: int, k: int) -> list[tuple[int, float]]:
    """The paper's S set for the unspecified entry (i, k): each common neighbor j, ascending, and s.

    s = a[i, j] * a[j, k], formed from Python floats; once (i, k) holds x, the triads through it
    are s / x and x / s.  A specified (i, k) raises :class:`EntrySpecifiedError`.
    """
    e, mask = m.entries, m.mask
    if mask[i, k]:
        raise EntrySpecifiedError(i, k)
    return [(j, float(e[i, j]) * float(e[j, k])) for j in range(m.n) if mask[i, j] and mask[j, k]]


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
    products = constraint_products(m, i, k)
    reference = brute_mt(m)
    xs = grid.values()
    worst = np.ones_like(xs)
    for _, s in products:
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

    Requires at least one common specified neighbor j (never i or k, as (i, k)
    is unspecified); the value is a[i, j] * a[j, k] for the smallest such j,
    and all neighbors must agree on it within ``tol.cons``.
    """
    i, k = (i, k) if i < k else (k, i)
    products = [s for _, s in constraint_products(m, i, k)]
    if not products:
        raise NoCommonNeighborError(i, k)
    if any(abs(s / products[0] - 1.0) > tol.cons for s in products):
        raise NeighborDisagreementError(i, k, products)
    return products[0]


def complete_consistent_chordal(
    m: PartialReciprocalMatrix,
    tol: Tolerances = DEFAULT_TOL,
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
    ordering = chordal_ordering(m.graph)
    entries = np.array(m.entries)
    for i, k in ordering:
        value = complete_one_entry_consistent(PartialReciprocalMatrix(entries), i, k, tol)
        entries[i, k], entries[k, i] = value, 1.0 / value
    _join_components(entries, m.graph.components, join_scale, join_u, join_v)
    return CompleteReciprocalMatrix(entries)


def pc_plus_by_least_squares(m: PartialReciprocalMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """PC+ from the log-domain fit log a[i,j] = w_i - w_j over the specified pairs i < j.

    ``numpy.linalg.lstsq`` fits w; the data is PC+ when every residual is at most
    ``log1p(tol.cons)``.  The signed residuals around any cycle sum to the log of its
    product, so the fit is exact exactly when every cycle product is 1.  Unlike the
    package's spanning-tree test it reads no graph, tree or component.  The two verdicts can
    differ only on data within the tolerance band, where the residuals spread a cycle's
    error over its edges.
    """
    i, j = np.nonzero(np.triu(~np.isnan(m.entries), 1))
    design = np.zeros((len(i), m.n))
    design[np.arange(len(i)), i] = 1.0
    design[np.arange(len(i)), j] = -1.0
    target = np.log(m.entries[i, j])
    w = np.linalg.lstsq(design, target, rcond=None)[0]
    return bool(np.all(np.abs(target - design @ w) <= math.log1p(tol.cons)))


def format_rows_per_cell(m: PartialReciprocalMatrix, source: Cells | None = None) -> list[list[str]]:
    """``fileio.format_rows`` one row at a time, with ``repr`` on every changed cell.

    With ``source``, a cell whose parsed value equals its entry keeps its token;
    every other cell is ``repr`` of its entry, and ``?`` where that is NaN.
    """
    e, rows = m.entries, []
    for i in range(m.n):
        if source is None:
            cells, redo = [UNSPECIFIED] * m.n, np.arange(m.n)
        else:  # NaN compares unequal, so every '?' cell and every unspecified entry is redone
            cells, redo = list(source[i]), np.flatnonzero(source.values[i] != e[i])
        for j, text in zip(redo.tolist(), map(repr, e[i, redo].tolist())):
            cells[j] = UNSPECIFIED if text == "nan" else text
        rows.append(cells)
    return rows
