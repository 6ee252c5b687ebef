"""Seeded inputs and CLI commands for the three benchmark workloads.

Instance ``index`` of a workload has a shape and values.  The shape (the
specification pattern, and which pairs ``reduce-repair`` perturbs and by
how much) comes from ``SHAPE_SEED``; the values (random entries and
consistent weights) come from ``--seed``.  So the same seed always yields
byte-identical matrix files, every run times the same shapes, and a seed
changes every number in them.  Operation cost is set almost entirely by
shape, and the shapes have a heavy tail: chordal orderings that reject
many candidates and reductions that run all eight steps.  With shapes
drawn from ``--seed`` too, 48-instance runs of ``chordal-fill`` on a quiet
host ranged from 5.7 to 6.9 ops/s by seed alone.  The heavy-tailed
shapes are still among the fixed ones.

The generators use numpy for randomness and networkx only to confirm
that non-chordal patterns really are non-chordal; nothing here calls into
``triadcomplete``, so the program under test never shapes its own inputs.

Cell spelling follows the shipped ``data/*.csv`` files: a comparison is
written as a fraction (``7/3``) and its mirror as the reciprocal fraction
(``3/7``).  Where the reciprocal fraction does not parse to exactly
``1 / value``, the mirror is written as that float instead, because the
program stores the mirror as ``1 / value`` and would otherwise respell it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np

# n for each instance cycles through the sizes, so every run sees the
# same mix whatever its length.  Chordal sizes stop at 20: completion
# grows roughly as n^5 and a 32-vertex tree already takes 5.8 s.
SIZES = {
    "chordal-fill": (12, 16, 20),
    "reduce-repair": (16, 24, 32),
    "consistent-large": (64, 96, 128),
}
WORKLOADS = tuple(SIZES)

CLIQUE_MAX = 4  # a new chordal vertex joins a clique of 1..CLIQUE_MAX vertices
PERTURBED_PAIRS = 4  # entries scaled away from consistency in reduce-repair
NONCHORDAL_EXTRA = 0.05  # chance of each extra edge beyond a random tree
SHAPE_SEED = 20251014  # fixed once; never tuned
TARGET_MT = 1.000001
MAX_STEPS = 8


@dataclass(frozen=True)
class Instance:
    """One generated matrix file plus what the checker needs to know about it.

    ``weights`` is set when the data is consistent: every specified cell
    (i, j) then equals ``weights[i] / weights[j]``.  ``components`` lists the
    vertex sets of the specification graph.
    """

    workload: str
    index: int
    n: int
    text: str
    weights: tuple[int, ...] | None
    components: tuple[tuple[int, ...], ...]


def _rng(seed: int, workload: str, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index, stream])


def _token(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _pair_tokens(f: Fraction) -> tuple[str, str]:
    recip = 1.0 / float(f)
    mirror = _token(1 / f) if float(1 / f) == recip else repr(recip)
    return _token(f), mirror


def _render(n: int, cells: dict[tuple[int, int], Fraction], header: str) -> str:
    grid = [["?"] * n for _ in range(n)]
    for v in range(n):
        grid[v][v] = "1"
    for (i, j), f in cells.items():
        grid[i][j], grid[j][i] = _pair_tokens(f)
    return f"# {header}\n" + "".join(",".join(row) + "\n" for row in grid)


def _log_uniform_fraction(rng: np.random.Generator, lo: float, hi: float) -> Fraction:
    x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return Fraction(x).limit_denominator(12)


def _weights(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    # Integer weights in [10, 90] keep every ratio within [1/9, 9].
    return tuple(int(w) for w in rng.integers(10, 91, n))


def _components(n: int, edges) -> tuple[tuple[int, ...], ...]:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(g)))


def chordal_edges(rng: np.random.Generator, n: int) -> set[tuple[int, int]]:
    """Connected chordal pattern with at least one triangle, by clique attachment.

    Each new vertex joins 1..CLIQUE_MAX vertices of a randomly chosen earlier
    clique, so it is simplicial when added and the graph stays chordal.
    Labels are shuffled at the end.
    """
    while True:
        cliques: list[tuple[int, ...]] = [(0,)]
        edges = set()
        for v in range(1, n):
            base = cliques[int(rng.integers(len(cliques)))]
            size = int(rng.integers(1, min(CLIQUE_MAX, len(base)) + 1))
            attach = sorted(int(u) for u in rng.choice(base, size, replace=False))
            edges.update((u, v) for u in attach)
            cliques.append((*attach, v))
        if any(len(c) >= 3 for c in cliques):
            break
    perm = rng.permutation(n)
    return {tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in edges}


def nonchordal_edges(rng: np.random.Generator, vertices) -> set[tuple[int, int]]:
    """Connected non-chordal pattern on ``vertices``: a random tree plus extra edges."""
    vertices = [int(v) for v in vertices]
    while True:
        order = rng.permutation(vertices)
        edges = {
            tuple(sorted((int(order[p]), int(order[rng.integers(p)]))))
            for p in range(1, len(order))
        }
        extra = np.argwhere(np.triu(rng.random((len(vertices),) * 2) < NONCHORDAL_EXTRA, 1))
        edges.update(tuple(sorted((vertices[a], vertices[b]))) for a, b in extra)
        if not nx.is_chordal(nx.Graph(list(edges))):
            return edges


def _chordal_fill(shape: np.random.Generator, value: np.random.Generator, n: int, index: int):
    edges = chordal_edges(shape, n)
    if index % 4 == 3:  # one instance in four is consistent
        w = _weights(value, n)
        cells = {(i, j): Fraction(w[i], w[j]) for i, j in sorted(edges)}
        return cells, w, "consistent data on a chordal pattern"
    cells = {(i, j): _log_uniform_fraction(value, 1 / 9, 9) for i, j in sorted(edges)}
    return cells, None, "random data on a chordal pattern"


def _reduce_repair(shape: np.random.Generator, value: np.random.Generator, n: int, index: int):
    w = _weights(value, n)
    cells = {(i, j): Fraction(w[i], w[j]) for i in range(n) for j in range(i + 1, n)}
    keys = list(cells)
    for p in shape.choice(len(keys), PERTURBED_PAIRS, replace=False):
        cells[keys[p]] *= _log_uniform_fraction(shape, 2, 9)
    return cells, None, f"consistent data with {PERTURBED_PAIRS} perturbed pairs"


def _consistent_large(shape: np.random.Generator, value: np.random.Generator, n: int, index: int):
    w = _weights(value, n)
    if index % 2 == 0:
        edges = nonchordal_edges(shape, range(n))
        header = "consistent data on a connected non-chordal pattern"
    else:
        perm = shape.permutation(n)
        cut = int(shape.integers(n // 4, 3 * n // 4 + 1))
        edges = nonchordal_edges(shape, sorted(perm[:cut])) | nonchordal_edges(
            shape, sorted(perm[cut:])
        )
        header = "consistent data on two non-chordal components"
    cells = {(i, j): Fraction(w[i], w[j]) for i, j in sorted(edges)}
    return cells, w, header


_MAKERS = {
    "chordal-fill": _chordal_fill,
    "reduce-repair": _reduce_repair,
    "consistent-large": _consistent_large,
}


def make_instance(workload: str, seed: int, index: int) -> Instance:
    """Instance ``index`` of ``workload`` for ``seed``; sizes cycle through SIZES."""
    sizes = SIZES[workload]
    n = sizes[index % len(sizes)]
    cells, weights, header = _MAKERS[workload](
        _rng(SHAPE_SEED, workload, index, 0), _rng(seed, workload, index, 1), n,
        index // len(sizes),
    )
    text = _render(n, cells, f"{workload} #{index}, n={n}: {header}")
    return Instance(workload, index, n, text, weights, _components(n, cells))


def commands(workload: str, path: str, out: str) -> list[list[str]]:
    """CLI argument lists making up one operation on one input file."""
    if workload == "chordal-fill":
        return [["check", path], ["complete", path, "--trace", "--out", out]]
    if workload == "reduce-repair":
        return [
            ["measure", path],
            ["reduce", path, "--target-mt", repr(TARGET_MT), "--max-steps", str(MAX_STEPS),
             "--trace", "--out", out],
        ]
    if workload == "consistent-large":
        return [["complete", path, "--trace", "--out", out]]
    raise ValueError(f"unknown workload {workload!r}")
