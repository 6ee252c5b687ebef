"""Randomized experiments over the completion and reduction engines.

Reports, across seeded random instances:

* delete-and-recover: how closely the CLI's two consistent engines (the
  mt-preserving fill, consistent on a chordal PCM, and the PC+ tree-weight
  fill) rebuild a rank-one matrix from a masked pattern;
* measure preservation: the worst drift of MT across 'minimax',
  'midpoint', 'lo' and 'hi' selections on chordal patterns;
* interval geometry: the spread hi/lo of the feasible interval at the
  first fill step;
* reduction: steps needed to repair a matrix with one corrupted entry.

    python scripts/random_experiments.py --trials 200 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import cases  # reuses the suite's instance generators
from triadcomplete import (
    SpecGraph,
    chordal_ordering,
    complete_consistent_pc_plus,
    complete_mt_preserving,
    feasible_interval,
    mt,
    reduce,
)


def recover_error(rng, n):
    full = cases.consistent_matrix(cases.random_weights(rng, n))
    g = cases.random_connected_chordal_graph(rng, n, min_missing=1)
    partial = cases.mask_to_graph(full, g)
    worst = 0.0
    for r in (complete_mt_preserving(partial).result, complete_consistent_pc_plus(partial)):
        worst = max(worst, float(np.max(np.abs(r.entries / full.entries - 1.0))))
    return worst


def measure_drift(rng, n):
    prm = cases.random_chordal_prm(rng, n, min_missing=1)
    base = mt(prm)
    drift = 0.0
    for selection in ("minimax", "midpoint", "lo", "hi"):
        result = complete_mt_preserving(prm, selection=selection).result
        drift = max(drift, abs(mt(result) / base - 1.0))
    return drift


def interval_spread(rng, n):
    prm = cases.random_chordal_prm(rng, n, min_missing=1)
    i, k = chordal_ordering(SpecGraph.from_matrix(prm))[0]
    fi = feasible_interval(prm, i, k)
    return fi.hi / fi.lo


def reduction_steps(rng, n):
    bad, _, _ = cases.perturbed_consistent(rng, n, factor=9.0)
    trace = reduce(bad, target_mt=1.0 + 1e-6, max_steps=10)
    return len(trace.steps) if trace.stop_reason == "target_reached" else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-size", type=int, default=4)
    parser.add_argument("--max-size", type=int, default=8)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    sizes = lambda: int(rng.integers(args.min_size, args.max_size + 1))

    errors = [recover_error(rng, sizes()) for _ in range(args.trials)]
    print(f"delete-and-recover   worst relative error: {max(errors):.3e}")

    drifts = [measure_drift(rng, sizes()) for _ in range(args.trials)]
    print(f"measure preservation worst relative drift: {max(drifts):.3e}")

    spreads = [interval_spread(rng, sizes()) for _ in range(args.trials)]
    print(
        "feasible interval    hi/lo spread: "
        f"median {np.median(spreads):.3f}, max {max(spreads):.3f}"
    )

    steps = [reduction_steps(rng, sizes()) for _ in range(args.trials)]
    done = [s for s in steps if s is not None]
    print(
        f"reduction            repaired {len(done)}/{args.trials} instances, "
        f"mean steps {np.mean(done):.2f}, max {max(done)}"
    )


if __name__ == "__main__":
    main()
