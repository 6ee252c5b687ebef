"""Matrix file parsing and formatting.

The on-disk format is a comma-separated text table, one row per line.
Cells are positive decimals, fractions like ``10/3``, or ``?`` for an
unspecified entry; lines starting with ``#`` are comments.  Unspecified
cells must come in symmetric pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import MatrixError, MatrixFileError
from .matrices import DEFAULT_TOL, PartialReciprocalMatrix, Tolerances, validate

UNSPECIFIED = "?"


def _parse_cell(token: str, line: int, col: int) -> float | None:
    if token == UNSPECIFIED:
        return None
    try:
        value = float(Fraction(token)) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixFileError(f"cannot parse cell {token!r}", line, col) from exc
    if not math.isfinite(value):
        raise MatrixFileError(f"cell {token!r} is not a finite number", line, col)
    return value


def parse_matrix(
    text: str, tol: Tolerances = DEFAULT_TOL
) -> tuple[PartialReciprocalMatrix, list[list[str]]]:
    """Parse file text into a validated matrix plus the raw cell tokens.

    The token grid is returned so writers can preserve fractional spellings
    for entries that survive unchanged.
    """
    tokens: list[list[str]] = []
    line_numbers: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens.append([cell.strip() for cell in stripped.split(",")])
        line_numbers.append(lineno)
    if not tokens:
        raise MatrixFileError("no matrix rows found")
    n = len(tokens)
    for row, lineno in zip(tokens, line_numbers):
        if len(row) != n:
            raise MatrixFileError(f"expected {n} cells, found {len(row)}", lineno)
    values = [
        [_parse_cell(tok, line_numbers[i], j + 1) for j, tok in enumerate(row)]
        for i, row in enumerate(tokens)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            if (values[i][j] is None) != (values[j][i] is None):
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


def _format_value(value: float, token: str | None) -> str:
    if token is not None and token != UNSPECIFIED:
        parsed = float(Fraction(token)) if "/" in token else float(token)
        if parsed == value:
            return token
    return repr(float(value))


def format_matrix(
    m: PartialReciprocalMatrix, source_tokens: list[list[str]] | None = None
) -> str:
    """Render a matrix back to file text; floats round-trip exactly.

    When ``source_tokens`` is given, cells whose value is unchanged keep
    their original spelling (fractions in particular).
    """
    lines = []
    for i in range(m.n):
        cells = []
        for j in range(m.n):
            if not m.mask[i, j]:
                cells.append(UNSPECIFIED)
                continue
            token = None
            if source_tokens is not None and i < len(source_tokens):
                row = source_tokens[i]
                token = row[j] if j < len(row) else None
            cells.append(_format_value(float(m.entries[i, j]), token))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_matrix(path, tol: Tolerances = DEFAULT_TOL) -> tuple[PartialReciprocalMatrix, list[list[str]]]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read(), tol)


def save_matrix(path, m: PartialReciprocalMatrix, source_tokens=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_matrix(m, source_tokens))
