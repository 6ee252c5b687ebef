"""Walk through the bundled sample matrices end to end.

Classifies the 5x5 partial matrix, completes it without increasing its
maximum triad product, joins the result with the 3x3 block, and finally
repairs the completed matrix back down with single-entry changes.

Run from the repository root:

    python scripts/demo_completion.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from triadcomplete import (
    SpecGraph,
    complete_consistent_pc_plus,
    complete_mt_preserving,
    is_chordal,
    is_pc_plus,
    is_pcm,
    join_blocks,
    load_matrix,
    mt,
    reduce,
    triad_scan,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def show(matrix, label):
    print(f"{label}:")
    for i in range(matrix.n):
        cells = [
            f"{matrix.entries[i, j]:9.5f}" if matrix.mask[i, j] else "        ?"
            for j in range(matrix.n)
        ]
        print("   " + " ".join(cells))


def main() -> None:
    partial, _ = load_matrix(DATA / "partial_5x5.csv")
    show(partial, "partial 5x5")
    graph = SpecGraph.from_matrix(partial)
    print(f"chordal: {is_chordal(graph)[0]}, PCM: {is_pcm(partial)}, "
          f"PC+: {is_pc_plus(partial)[0]}")
    print(f"MT = {mt(partial):.6f}, K = {triad_scan(partial).koczkodaj:.6f}")

    print("\ncompleting without increasing MT (minimax selection) ...")
    report = complete_mt_preserving(partial)
    for step in report.steps:
        i, j = step.edge
        print(
            f"   filled ({i + 1},{j + 1}) = {step.value:.6f} from interval "
            f"[{step.interval.lo:.6f}, {step.interval.hi:.6f}]  "
            f"MT {step.interval.mt_context:.4f} -> {step.mt_after:.4f}"
        )
    completed = report.result
    show(completed, "completed 5x5")

    block, _ = load_matrix(DATA / "block_3x3.csv")
    joined = join_blocks(completed, block.to_complete(), u_col=2, v_col=0, k=1.0)
    print(f"\njoined with the 3x3 block: MT = {mt(joined):.6f} "
          f"(blocks: {mt(completed):.4f} and {mt(block):.4f})")

    print("\nrepairing the completed 5x5 toward consistency ...")
    trace = reduce(completed, target_mt=1.01, max_steps=6)
    for step in trace.steps:
        i, j = step.edge
        print(
            f"   changed ({i + 1},{j + 1}): {step.old_value:.5f} -> "
            f"{step.new_value:.5f}  MT {step.mt_before:.5f} -> {step.mt_after:.5f}"
        )
    print(f"stop reason: {trace.stop_reason}, final MT = {trace.mt_final:.6f}")

    repaired, _ = load_matrix(DATA / "cycle_4x4_repaired.csv")
    done = complete_consistent_pc_plus(repaired)
    print(f"\n4x4 cycle with repaired data completes consistently: "
          f"(1,3) = {done.entries[0, 2]:.6f}, (2,4) = {done.entries[1, 3]:.6f}")


if __name__ == "__main__":
    main()
