"""Matrix file parsing and formatting.

The on-disk format is a comma-separated text table, one row per line.
Cells are positive decimals, fractions like ``10/3``, or ``?`` for an
unspecified entry; lines starting with ``#`` are comments.  Unspecified
cells must come in symmetric pairs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .errors import MatrixError, MatrixFileError
from .matrices import DEFAULT_TOL, PartialReciprocalMatrix, Tolerances, validate

UNSPECIFIED = "?"
_RATIO = re.compile("[0-9]+/[0-9]+")


def _token_value(token: str) -> float:
    """The value of a specified cell, bit for bit ``float(Fraction(token))``.

    A plain ``p/q`` skips ``Fraction``: its ``__float__`` is the correctly
    rounded int division ``p / q``, which gcd reduction does not change.
    """
    if "/" not in token:
        return float(token)
    if _RATIO.fullmatch(token):
        p, q = token.split("/")
        return int(p) / int(q)
    return float(Fraction(token))


def _parse_cell(token: str, line: int, col: int) -> float:
    if token == UNSPECIFIED:
        return math.nan
    try:
        value = _token_value(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixFileError(f"cannot parse cell {token!r}", line, col) from exc
    except OverflowError:  # an int ratio beyond double range
        value = math.inf
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
    values = np.array(
        [[_parse_cell(tok, line_numbers[i], j + 1) for j, tok in enumerate(row)]
         for i, row in enumerate(tokens)]
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


def format_matrix(
    m: PartialReciprocalMatrix, source_tokens: list[list[str]] | None = None
) -> str:
    """Render a matrix back to file text; floats round-trip exactly.

    When ``source_tokens`` is given, cells whose value is unchanged keep
    their original spelling (fractions in particular).
    """
    source = source_tokens or []
    lines = []
    for i, (values, specified) in enumerate(zip(m.entries.tolist(), m.mask.tolist())):
        cells = [repr(v) if known else UNSPECIFIED for v, known in zip(values, specified)]
        for j, token in enumerate(source[i][: m.n] if i < len(source) else ()):
            if token != UNSPECIFIED and specified[j] and _token_value(token) == values[j]:
                cells[j] = token
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_matrix(path, tol: Tolerances = DEFAULT_TOL) -> tuple[PartialReciprocalMatrix, list[list[str]]]:
    with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
        return parse_matrix(handle.read(), tol)
