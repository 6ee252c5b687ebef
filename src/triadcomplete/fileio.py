"""Matrix file parsing and formatting.

The on-disk format is a comma-separated text table, one row per line; ``#``
lines are comments.  A cell, stripped of whitespace, is ``?`` (unspecified, in
symmetric pairs) or a number in one ASCII grammar on every Python version: a
signed ``p/q`` of digit strings, or a signed decimal with an optional exponent.
``inf`` and ``nan`` are refused as not finite; any other cell cannot be parsed.
Each cell is parsed once, into the grid :class:`Cells` keep; :func:`format_rows` keeps a token
where that value equals its entry and runs ``repr`` once per distinct changed bit pattern.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import MatrixError, MatrixFileError
from .matrices import DEFAULT_TOL, PartialReciprocalMatrix, Tolerances, validate

UNSPECIFIED = "?"
_SPACE = re.compile(r"\s")  # what str.strip() strips
# The one cell grammar, ASCII only: a signed ratio p/q, a signed decimal with an
# optional exponent, or an inf/nan spelling that parsing refuses as not finite.
_CELL = re.compile(
    r"([+-]?[0-9]+)/([0-9]+)|[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|(?i:[+-]?(?:inf(?:inity)?|nan))"
)


class Cells(list):
    """A file's cell tokens, row by row, and ``values``: their parsed grid, NaN for ``?``."""


def _token_value(token: str) -> float:
    """The value of a specified cell; a token outside the cell grammar raises ``ValueError``.

    A ratio is the correctly rounded int division ``p / q``, bit for bit
    ``float(Fraction(token))``, since gcd reduction does not change it.
    """
    match = _CELL.fullmatch(token)
    if match is None:
        raise ValueError(f"not a cell: {token!r}")
    p, q = match.groups()
    return int(p) / int(q) if q else float(token)


def _parse_row(row: list[str], line: int) -> list[float]:
    """One row's values, NaN for ``?``; its first bad cell raises, located."""
    values = [math.nan] * len(row)
    for j, token in enumerate(row):
        if token == UNSPECIFIED:
            continue
        try:
            values[j] = _token_value(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixFileError(f"cannot parse cell {token!r}", line, j + 1) from exc
        except OverflowError:  # an int ratio beyond double range
            values[j] = math.inf
        if not math.isfinite(values[j]):
            raise MatrixFileError(f"cell {token!r} is not a finite number", line, j + 1)
    return values


def parse_matrix(text: str, tol: Tolerances = DEFAULT_TOL) -> tuple[PartialReciprocalMatrix, Cells]:
    """Parse file text into a validated matrix plus its :class:`Cells`.

    Each cell is parsed once; the cells let writers keep the spelling of
    entries that survive unchanged.
    """
    tokens = Cells()
    line_numbers: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = stripped.split(",")
        tokens.append([cell.strip() for cell in cells] if _SPACE.search(stripped) else cells)
        line_numbers.append(lineno)
    if not tokens:
        raise MatrixFileError("no matrix rows found")
    n = len(tokens)
    for row, lineno in zip(tokens, line_numbers):
        if len(row) != n:
            raise MatrixFileError(f"expected {n} cells, found {len(row)}", lineno)
    tokens.values = values = np.array(
        [_parse_row(row, lineno) for row, lineno in zip(tokens, line_numbers)]
    )
    unspecified = np.isnan(values)
    lone = np.argwhere(np.triu(unspecified != unspecified.T, 1))  # row-major order
    if len(lone):
        i, j = lone[0].tolist()
        raise MatrixFileError(
            f"unspecified cells must be symmetric, but only one of"
            f" ({i + 1}, {j + 1}) / ({j + 1}, {i + 1}) is '?'",
            line_numbers[i],
            j + 1,
        )
    try:
        prm = validate(values, tol)
    except MatrixError as exc:
        line = line_numbers[exc.i] if hasattr(exc, "i") else None
        col = exc.j + 1 if hasattr(exc, "j") else None
        raise MatrixFileError(str(exc), line, col) from exc
    return prm, tokens


def format_rows(m: PartialReciprocalMatrix, source: Cells | None = None) -> list[list[str]]:
    """Each row's cell text; a float is written by ``repr``, so it round-trips exactly.

    With ``source``, the cells of the file ``m`` came from, a cell whose parsed
    value equals its entry keeps its spelling (fractions in particular).  ``repr`` runs
    once per distinct changed value, told apart by bit pattern as ``-0.0 == 0.0``.
    """
    e = m.entries
    if source is None:
        cells, redo = np.empty(e.shape, dtype=object), np.ones(e.shape, dtype=bool)
    else:  # NaN compares unequal, so every '?' cell and every unspecified entry is redone
        cells, redo = np.array(source, dtype=object), source.values != e
    patterns, at = np.unique(e[redo].view(np.int64), return_inverse=True)
    texts = [UNSPECIFIED if t == "nan" else t for t in map(repr, patterns.view(float).tolist())]
    cells[redo] = np.array(texts, dtype=object)[at]
    return cells.tolist()


def format_matrix(m: PartialReciprocalMatrix, source: Cells | None = None) -> str:
    """Render a matrix back to file text: the rows of :func:`format_rows`, one per line."""
    return "".join([",".join(row) + "\n" for row in format_rows(m, source)])


def load_matrix(path, tol: Tolerances = DEFAULT_TOL) -> tuple[PartialReciprocalMatrix, Cells]:
    with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
        return parse_matrix(handle.read(), tol)
