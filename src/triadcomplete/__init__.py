"""Completion and repair of partial pairwise-comparison matrices.

The package classifies partial reciprocal matrices (consistent data,
cycle-product conditions, chordal specification graphs), completes them
exactly to consistency when possible and otherwise without increasing the
maximum triad product, and reduces the inconsistency of complete matrices
by targeted single-entry repairs.
"""

from . import errors, oracle
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
from .fileio import format_matrix, load_matrix, parse_matrix, save_matrix
from .graphs import (
    SpecGraph,
    chordal_ordering,
    common_specified_neighbors,
    connected_components,
    is_chordal,
    spanning_tree,
)
from .matrices import (
    DEFAULT_TOL,
    CompleteReciprocalMatrix,
    PartialReciprocalMatrix,
    Tolerances,
    validate,
)
from .measures import (
    TriadProduct,
    TriadSets,
    is_consistent,
    is_pc_plus,
    is_pcm,
    koczkodaj_index,
    max_triad,
    mt,
    rank_one_vector,
    tree_weights,
    triad_sets_for_entry,
)
from .reduction import (
    ReductionStep,
    ReductionTrace,
    reduce,
    reduce_step,
    worst_triad,
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
    "TriadProduct",
    "TriadSets",
    "chordal_ordering",
    "common_specified_neighbors",
    "complete_consistent_pc_plus",
    "complete_mt_preserving",
    "connected_components",
    "errors",
    "feasible_interval",
    "format_matrix",
    "is_chordal",
    "is_consistent",
    "is_pc_plus",
    "is_pcm",
    "join_blocks",
    "koczkodaj_index",
    "load_matrix",
    "max_triad",
    "mt",
    "oracle",
    "parse_matrix",
    "rank_one_vector",
    "reduce",
    "reduce_step",
    "save_matrix",
    "select_value",
    "spanning_tree",
    "tree_weights",
    "triad_sets_for_entry",
    "validate",
    "worst_triad",
]
