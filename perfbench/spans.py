"""Per-layer spans recorded from outside the package.

The layers are the package's modules.  Every cross-module call in
``triadcomplete`` goes through ``from .x import name``, and calls inside a
module look the name up in that module's globals, so rebinding a function
in every ``triadcomplete.*`` namespace reaches every call site with no edit
to the package.  Methods that hold a layer's own work (graph edits, matrix
construction) are rebound on their class in the same way.

A span records its name, its parent span, and its start and end.  Spans
are kept in memory for one operation; ``Profile.add`` folds them into self
times and counts, and the caller drops them before the next operation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("cli", "fileio", "matrices", "graphs", "measures", "completion", "reduction")

# Functions timed per layer.  ``fileio.parse_matrix`` is left untimed so that
# ``fileio.load_matrix`` covers both reading and parsing a file, and
# ``completion._join_components`` is timed because it does the bulk fill
# across components.  Names missing from the package are skipped.
FUNCTIONS = {
    "cli": ("main",),
    "fileio": ("load_matrix", "format_matrix", "save_matrix"),
    "matrices": ("validate", "is_consistent", "rank_one_vector"),
    "graphs": (
        "from_matrix",
        "is_chordal",
        "connected_components",
        "spanning_tree",
        "chordal_ordering",
        "common_specified_neighbors",
    ),
    "measures": (
        "specified_triads",
        "mt",
        "is_pcm",
        "is_pc_plus",
        "tree_weights",
        "triad_sets_for_entry",
        "max_triad",
        "koczkodaj_index",
    ),
    "completion": (
        "feasible_interval",
        "select_value",
        "complete_one_entry_consistent",
        "complete_consistent_chordal",
        "complete_consistent_pc_plus",
        "complete_mt_preserving",
        "join_blocks",
        "_join_components",
    ),
    "reduction": ("worst_triad", "reduce_step", "reduce"),
}

# Methods timed on each layer's classes.  ``__post_init__`` runs once per
# constructed matrix, complete ones included, and copies both arrays.
METHODS = {
    ("graphs", "SpecGraph"): ("from_matrix", "adjacency", "add_edge", "non_edges", "induced"),
    ("matrices", "PartialReciprocalMatrix"): (
        "__post_init__",
        "missing_pairs",
        "with_entry",
        "without_entry",
        "to_complete",
    ),
}

# Spans that also record ``len`` of their result.
SIZED = ("graphs.chordal_ordering", "completion._join_components")

# Entry points whose time ``Profile.within`` splits by what runs under them;
# everything under a FOLDED span counts towards that span.
ENGINES = (
    "completion.complete_mt_preserving",
    "completion.complete_consistent_chordal",
    "completion.complete_consistent_pc_plus",
    "reduction.reduce",
)
FOLDED = ("graphs.chordal_ordering",)


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span within the operation, -1 for a root
    start: float
    end: float = 0.0
    size: int = 0


class Tracer:
    """Context manager that rebinds the timed names while it is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in SIZED

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if sized:
                span.size = len(result)
            return result

        return timed

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "triadcomplete" or name.startswith("triadcomplete.")
        ]
        wrapped = {}
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"triadcomplete.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[f"triadcomplete.{layer}"], cls_name, None)
            for name in names if cls is not None else ():
                raw = vars(cls).get(name)
                label = f"{layer}.{cls_name}.{name}"
                if isinstance(raw, classmethod):
                    self._rebind(cls, name, classmethod(self._wrap(label, raw.__func__)))
                elif callable(raw):
                    self._rebind(cls, name, self._wrap(label, raw))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@dataclass
class Profile:
    """Self seconds and call counts per span name, summed over operations.

    ``pairs`` counts calls by (parent name, child name), ``sizes`` sums
    the recorded result lengths of the SIZED spans, and ``within`` holds
    self seconds by (engine, span name) for spans under one of ENGINES.
    """

    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    pairs: Counter = field(default_factory=Counter)
    sizes: Counter = field(default_factory=Counter)
    within: Counter = field(default_factory=Counter)

    def add(self, spans: list[Span]) -> Profile:
        """Fold one operation's spans in; returns that operation's own profile."""
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        op = Profile()
        where: list[tuple[str | None, str | None]] = []  # (engine, folded ancestor)
        for s, inner in zip(spans, child):
            own = s.end - s.start - inner
            op.self_s[s.name] += own
            op.calls[s.name] += 1
            op.sizes[s.name] += s.size
            engine, folded = where[s.parent] if s.parent >= 0 else (None, None)
            if s.parent >= 0:
                op.pairs[spans[s.parent].name, s.name] += 1
            if s.name in ENGINES:
                engine, folded = s.name, None
            elif engine and folded is None and s.name in FOLDED:
                folded = s.name
            where.append((engine, folded))
            if engine:
                op.within[engine, folded or s.name] += own
        for mine, theirs in ((self.self_s, op.self_s), (self.calls, op.calls),
                             (self.pairs, op.pairs), (self.sizes, op.sizes),
                             (self.within, op.within)):
            mine.update(theirs)
        return op

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)
