"""Package exceptions: messages are one-based with plain floats; attributes are zero-based."""

from __future__ import annotations


def _one_based(vertices, sep: str) -> str:
    return sep.join(str(v + 1) for v in vertices)


class MatrixError(ValueError):
    """Invalid or inconsistent reciprocal-matrix data."""


class NonSquareError(MatrixError):
    def __init__(self, shape) -> None:
        super().__init__(f"matrix data is not square: {shape}")
        self.shape = shape


class NonPositiveEntryError(MatrixError):
    def __init__(self, i: int, j: int, value: float) -> None:
        super().__init__(
            f"entry ({i + 1}, {j + 1}) must be positive and finite, got {float(value)!r}"
        )
        self.i, self.j, self.value = i, j, value


class DiagonalNotOneError(MatrixError):
    def __init__(self, i: int, value: float) -> None:
        super().__init__(f"diagonal entry ({i + 1}, {i + 1}) must equal 1, got {float(value)!r}")
        self.i, self.value = i, value


class ReciprocityViolationError(MatrixError):
    def __init__(self, i: int, j: int, product: float) -> None:
        super().__init__(
            f"entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) are not mutual reciprocals;"
            f" their product is {float(product)!r}"
        )
        self.i, self.j, self.product = i, j, product


class ReciprocalOverflowError(MatrixError):
    def __init__(self, i: int, j: int, value: float) -> None:
        super().__init__(
            f"entry ({i + 1}, {j + 1}) = {float(value)!r} has a reciprocal out of double range"
        )
        self.i, self.j, self.value = i, j, value


class EntrySpecifiedError(MatrixError):
    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"entry ({i + 1}, {j + 1}) is already specified")
        self.i, self.j = i, j


class CompletionError(ValueError):
    """A completion engine cannot proceed on the given input."""


class NotPCPlusError(CompletionError):
    def __init__(self, edge) -> None:
        super().__init__(
            "a fully specified cycle has product != 1"
            f" (violating edge {{{_one_based(edge, ',')}}})"
        )
        self.edge = tuple(edge)


class ComponentNotChordalError(CompletionError):
    def __init__(self, component, cycle) -> None:
        super().__init__(
            f"component {{{_one_based(component, ',')}}} is not chordal;"
            f" chordless cycle {_one_based(cycle, '-')}"
        )
        self.component = tuple(component)
        self.cycle = tuple(cycle)


class NoConsistentCompletionError(CompletionError):
    """No consistent completion exists for the given data."""


class MatrixTooSmallError(ValueError):
    """Operation needs at least a 3x3 matrix."""


class MatrixFileError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None) -> None:
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line, self.col = line, col
