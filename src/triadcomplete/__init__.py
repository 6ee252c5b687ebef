"""Completion and repair of partial pairwise-comparison matrices.

The package classifies partial reciprocal matrices (consistent data,
cycle-product conditions, chordal specification graphs), completes them
exactly to consistency when possible and otherwise without increasing the
maximum triad product, and reduces the inconsistency of complete matrices
by targeted single-entry repairs.
"""

from . import errors
from .completion import (
    BlockJoin,
    CompletionReport,
    CompletionStep,
    FeasibleInterval,
    complete_consistent_pc_plus,
    complete_mt_preserving,
    feasible_interval,
    join_blocks,
    select_value,
)
from .fileio import format_matrix, load_matrix, parse_matrix
from .graphs import (
    SpecGraph,
    chordal_ordering,
    connected_components,
    is_chordal,
)
from .matrices import (
    DEFAULT_TOL,
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
    validate,
)
from .measures import (
    is_pc_plus,
    is_pcm,
    mt,
    tree_weights,
    triad_scan,
)
from .reduction import (
    ReductionStep,
    ReductionTrace,
    reduce,
    reduce_step,
)

__version__ = "0.1.0"

__all__ = [
    "BlockJoin",
    "CompleteReciprocalMatrix",
    "CompletionReport",
    "CompletionStep",
    "DEFAULT_TOL",
    "FeasibleInterval",
    "PartialReciprocalMatrix",
    "ReductionStep",
    "ReductionTrace",
    "SpecGraph",
    "Tolerances",
    "chordal_ordering",
    "complete_consistent_pc_plus",
    "complete_mt_preserving",
    "connected_components",
    "errors",
    "feasible_interval",
    "format_matrix",
    "is_chordal",
    "is_pc_plus",
    "is_pcm",
    "join_blocks",
    "load_matrix",
    "mt",
    "parse_matrix",
    "reduce",
    "reduce_step",
    "select_value",
    "tree_weights",
    "triad_scan",
    "validate",
]
