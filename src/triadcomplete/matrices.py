"""Reciprocal (pairwise comparison) matrices, complete and partial.

A reciprocal matrix holds positive ratio comparisons with ``a[j, i] ==
1 / a[i, j]`` and a unit diagonal.  A partial matrix is its entries alone:
NaN is the only mark of an unspecified entry, so it poisons any arithmetic
that touches it by accident, and the mask of specified entries is derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DiagonalNotOneError,
    MatrixError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocalOverflowError,
    ReciprocityViolationError,
)
from .graphs import SpecGraph


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used throughout.

    ``rec`` guards reciprocity during validation, ``cons`` decides when a
    triad product counts as 1 (consistency), and ``cmp`` is used when
    comparing measure values and interval endpoints.
    """

    rec: float = 1e-9
    cons: float = 1e-9
    cmp: float = 1e-9

    def __post_init__(self) -> None:
        if not all(0.0 < t < math.inf for t in (self.rec, self.cons, self.cmp)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True, eq=False)
class PartialReciprocalMatrix:
    """Positive reciprocal matrix whose NaN entries are the unspecified ones.

    Instances are immutable; ``entries`` is copied on construction and marked
    read-only, and ``mask`` and ``graph`` derive from it.  Use :func:`validate`
    to build one from raw data so that all invariants are enforced.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise NonSquareError(entries.shape)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def mask(self) -> np.ndarray:
        """Specified entries, ``~np.isnan(entries)``, derived on first read and read-only."""
        mask = ~np.isnan(self.entries)
        mask.setflags(write=False)
        return mask

    @cached_property
    def graph(self) -> SpecGraph:
        """The specification graph, built on first read; the entries are read-only."""
        return SpecGraph.from_matrix(self)

    @cached_property
    def _weights(self) -> dict[int, np.ndarray]:
        return {}

    def component_weights(self, c: int) -> np.ndarray:
        """Spanning-tree weights of ``graph.components[c]`` in its vertex order, computed once.

        They come from :func:`measures.tree_weights` and need no tolerance.
        """
        if c not in self._weights:
            from .measures import tree_weights  # measures imports this module

            comp = self.graph.components[c]
            w = tree_weights(self, comp)
            self._weights[c] = np.array([w[v] for v in comp])
        return self._weights[c]

    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def missing_pairs(self) -> np.ndarray:
        """Unspecified positions (i, j) with i < j, row-major, as a (k, 2) int array."""
        return np.argwhere(np.triu(~self.mask, 1))

    def _check_pair(self, i: int, j: int, action: str) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise MatrixError(f"entry ({i + 1}, {j + 1}) is outside the {self.n}x{self.n} matrix")
        if i == j:
            raise MatrixError(f"cannot {action} a diagonal entry")

    def with_entry(self, i: int, j: int, value: float) -> PartialReciprocalMatrix:
        """New matrix with (i, j) set to ``value`` and (j, i) to its reciprocal."""
        self._check_pair(i, j, "set")
        if not (value > 0.0 and np.isfinite(value)):
            raise NonPositiveEntryError(i, j, value)
        entries = np.array(self.entries)
        entries[i, j] = value
        entries[j, i] = 1.0 / value
        return PartialReciprocalMatrix(entries)

    def without_entry(self, i: int, j: int) -> PartialReciprocalMatrix:
        """New matrix with the symmetric pair (i, j), (j, i) unspecified."""
        self._check_pair(i, j, "unspecify")
        entries = np.array(self.entries)
        entries[i, j] = entries[j, i] = np.nan
        return PartialReciprocalMatrix(entries)

    def to_complete(self) -> CompleteReciprocalMatrix:
        if not self.is_complete():
            raise MatrixError(
                f"matrix is not complete; {len(self.missing_pairs())} pair(s) unspecified"
            )
        return CompleteReciprocalMatrix(self.entries)


@dataclass(frozen=True, eq=False)
class CompleteReciprocalMatrix(PartialReciprocalMatrix):
    """Reciprocal matrix with every entry specified: ``entries`` holds no NaN."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_complete():
            raise MatrixError("complete matrix has unspecified entries")


def _as_float_grid(raw) -> np.ndarray:
    if not isinstance(raw, np.ndarray):
        rows = [list(r) for r in raw]
        for r in rows:
            if len(r) != len(rows):
                raise NonSquareError((len(rows), len(r)))
        raw = np.array(rows, dtype=float).reshape(len(rows), len(rows))  # None -> NaN
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise NonSquareError(raw.shape)
    return raw.astype(float)


def validate(raw, tol: Tolerances = DEFAULT_TOL) -> PartialReciprocalMatrix:
    """Check raw data and normalize it into a :class:`PartialReciprocalMatrix`.

    ``raw`` is a square array-like; ``None`` or NaN marks an unspecified
    entry.  Unspecified diagonal entries are filled with 1; specified ones
    must equal 1 within ``tol.rec``.  When only one of a symmetric pair is
    given, the mate is filled with its reciprocal; when both are given they
    must multiply to 1 within ``tol.rec``.  The stored pair is always
    ``(a, 1/a)`` with ``a`` the upper-triangle value, so reciprocity is
    exact by construction afterwards; a pair whose ``1/a`` leaves double
    range raises :class:`ReciprocalOverflowError`.
    """
    grid = _as_float_grid(raw)
    n = grid.shape[0]
    if n == 0:
        raise MatrixError("matrix must have at least one row")
    bad = np.abs(np.diagonal(grid) - 1.0) > tol.rec  # NaN (unspecified) compares False
    if bad.any():
        i = int(np.argmax(bad))
        raise DiagonalNotOneError(i, grid[i, i])
    rows, cols = np.triu_indices(n, 1)  # pairs i < j in row-major order
    a, b = grid[rows, cols], grid[cols, rows]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = np.where(np.isnan(a), 1.0 / b, a)
        mirror = 1.0 / value
        product = a * b
    # The first bad pair raises, for the first check it fails in this order:
    # a and b positive and finite, a * b near 1, 1/value within double range.
    checks = (
        (a <= 0.0) | (a == np.inf),
        (b <= 0.0) | (b == np.inf),
        np.abs(product - 1.0) > tol.rec,
        (mirror == 0.0) | (mirror == np.inf),
    )
    bad = np.logical_or.reduce(checks)
    if bad.any():
        p = int(np.argmax(bad))
        i, j = int(rows[p]), int(cols[p])
        if checks[0][p]:
            raise NonPositiveEntryError(i, j, grid[i, j])
        if checks[1][p]:
            raise NonPositiveEntryError(j, i, grid[j, i])
        if checks[2][p]:
            raise ReciprocityViolationError(i, j, product[p])
        if np.isnan(a[p]):
            i, j = j, i
        raise ReciprocalOverflowError(i, j, grid[i, j])
    entries = np.full((n, n), np.nan)
    keep = ~np.isnan(value)
    entries[rows[keep], cols[keep]] = value[keep]
    entries[cols[keep], rows[keep]] = mirror[keep]
    np.fill_diagonal(entries, 1.0)
    return PartialReciprocalMatrix(entries)
