"""Exact triad products of matrix files, for certificates at the CLI boundary.

Input cells are rational text (``p/q`` or a decimal), and every cell the CLI
writes is a float in full, which is a rational too.  So cells parse exactly
as :class:`fractions.Fraction`, and the triad products of a file, hence its
MT, carry no rounding at all.  Like ``perfbench/checker.py``, this module
imports nothing from ``triadcomplete``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def tokens(text: str) -> list[list[str]]:
    """Cell tokens of a matrix file; ``#`` comment lines and blank lines are skipped."""
    rows = [line.strip() for line in text.splitlines()]
    return [[cell.strip() for cell in row.split(",")] for row in rows if row and row[0] != "#"]


def values(grid: list[list[str]]) -> list[list[Fraction | None]]:
    """The exact value of each cell, ``None`` where it is ``?``."""
    return [[None if token == "?" else Fraction(token) for token in row] for row in grid]


def product_range(a: list[list[Fraction | None]]) -> tuple[Fraction, Fraction]:
    """The least and greatest oriented product a[i][j]·a[j][k]·a[k][i], 1 included.

    Both orientations of every fully specified triad i < j < k count, each
    read from its own cells, so a reciprocal that is not exact shows.  The
    greatest is the exact MT.
    """
    parts = [[None if v is None else (v.numerator, v.denominator) for v in row] for row in a]
    lo = hi = (1, 1)
    for i, j, k in combinations(range(len(a)), 3):
        cycles = (
            (parts[i][j], parts[j][k], parts[k][i]),
            (parts[i][k], parts[k][j], parts[j][i]),
        )
        if None in cycles[0] or None in cycles[1]:
            continue
        for (p, q), (r, s), (t, u) in cycles:
            num, den = p * r * t, q * s * u  # not reduced; compared by cross products
            if num * lo[1] < lo[0] * den:
                lo = (num, den)
            if num * hi[1] > hi[0] * den:
                hi = (num, den)
    return Fraction(*lo), Fraction(*hi)
