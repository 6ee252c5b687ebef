"""Reciprocal (pairwise comparison) matrices, complete and partial.

A reciprocal matrix holds positive ratio comparisons with ``a[j, i] ==
1 / a[i, j]`` and a unit diagonal.  A partial matrix additionally tracks
which entries are specified; unspecified positions are stored as NaN and
masked out, so they poison any arithmetic that touches them by accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalNotOneError,
    MatrixError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocityViolationError,
)


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
    """Positive reciprocal matrix with a mask of specified entries.

    Instances are immutable; the underlying arrays are copied on
    construction and marked read-only.  Use :func:`validate` to build one
    from raw data so that all invariants are enforced.
    """

    entries: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise NonSquareError(entries.shape)
        if mask.shape != entries.shape:
            raise MatrixError("mask shape differs from entries shape")
        entries[~mask] = np.nan
        entries.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def is_specified(self, i: int, j: int) -> bool:
        return bool(self.mask[i, j])

    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def missing_pairs(self) -> list[tuple[int, int]]:
        """Unspecified positions (i, j) with i < j."""
        n = self.n
        return [(i, j) for i in range(n) for j in range(i + 1, n) if not self.mask[i, j]]

    def with_entry(self, i: int, j: int, value: float) -> PartialReciprocalMatrix:
        """New matrix with (i, j) set to ``value`` and (j, i) to its reciprocal."""
        if i == j:
            raise MatrixError("cannot set a diagonal entry")
        _check_positive(i, j, value)
        entries = np.array(self.entries)
        mask = np.array(self.mask)
        entries[i, j] = value
        entries[j, i] = 1.0 / value
        mask[i, j] = mask[j, i] = True
        return PartialReciprocalMatrix(entries, mask)

    def without_entry(self, i: int, j: int) -> PartialReciprocalMatrix:
        """New matrix with the symmetric pair (i, j), (j, i) unspecified."""
        if i == j:
            raise MatrixError("cannot unspecify a diagonal entry")
        entries = np.array(self.entries)
        mask = np.array(self.mask)
        mask[i, j] = mask[j, i] = False
        return PartialReciprocalMatrix(entries, mask)

    def to_complete(self) -> CompleteReciprocalMatrix:
        if not self.is_complete():
            raise MatrixError(
                f"matrix is not complete; {len(self.missing_pairs())} pair(s) unspecified"
            )
        return CompleteReciprocalMatrix(self.entries, self.mask)


@dataclass(frozen=True, eq=False)
class CompleteReciprocalMatrix(PartialReciprocalMatrix):
    """Reciprocal matrix with every entry specified."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.mask.all():
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


def _check_positive(i: int, j: int, value: float) -> None:
    if not (value > 0.0 and np.isfinite(value)):
        raise NonPositiveEntryError(i, j, value)


def validate(raw, tol: Tolerances = DEFAULT_TOL) -> PartialReciprocalMatrix:
    """Check raw data and normalize it into a :class:`PartialReciprocalMatrix`.

    ``raw`` is a square array-like; ``None`` or NaN marks an unspecified
    entry.  Unspecified diagonal entries are filled with 1; specified ones
    must equal 1 within ``tol.rec``.  When only one of a symmetric pair is
    given, the mate is filled with its reciprocal; when both are given they
    must multiply to 1 within ``tol.rec``.  The stored pair is always
    ``(a, 1/a)`` with ``a`` the upper-triangle value, so reciprocity is
    exact by construction afterwards.
    """
    grid = _as_float_grid(raw)
    n = grid.shape[0]
    if n == 0:
        raise MatrixError("matrix must have at least one row")
    entries = np.full((n, n), np.nan)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        v = grid[i, i]
        if not np.isnan(v) and (not np.isfinite(v) or abs(v - 1.0) > tol.rec):
            raise DiagonalNotOneError(i, v)
        entries[i, i] = 1.0
        mask[i, i] = True
    for i in range(n):
        for j in range(i + 1, n):
            a, b = grid[i, j], grid[j, i]
            has_a, has_b = not np.isnan(a), not np.isnan(b)
            if not (has_a or has_b):
                continue
            if has_a:
                _check_positive(i, j, a)
            if has_b:
                _check_positive(j, i, b)
            if has_a and has_b and abs(a * b - 1.0) > tol.rec:
                raise ReciprocityViolationError(i, j, a * b)
            value = a if has_a else 1.0 / b
            entries[i, j] = value
            entries[j, i] = 1.0 / value
            mask[i, j] = mask[j, i] = True
    return PartialReciprocalMatrix(entries, mask)
