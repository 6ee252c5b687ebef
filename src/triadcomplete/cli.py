"""Command-line interface.

Subcommands: ``check`` classifies a matrix file, ``complete`` fills the
unspecified entries, ``reduce`` repairs a complete matrix toward a target
measure, and ``measure`` reports the triad measures.  All user-facing
indices are one-based.  Exit codes: 0 on success (or when a consistent
completion exists), 1 on a domain-negative outcome, 2 on input or usage
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .completion import (
    SELECTIONS,
    CompletionReport,
    complete_consistent_pc_plus,
    complete_mt_preserving,
)
from .errors import (
    CompletionError,
    MatrixFileError,
    MatrixTooSmallError,
    NoConsistentCompletionError,
)
from .fileio import load_matrix, format_matrix, save_matrix
from .graphs import SpecGraph, connected_components, is_chordal
from .matrices import PartialReciprocalMatrix, Tolerances
from .measures import TriadScan, is_pc_plus, mt, triad_scan
from .reduction import EDGE_RULES, reduce


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _one_based(indices) -> list[int]:
    return [int(v) + 1 for v in indices]


def _jsonable(value):
    if isinstance(value, float):
        return None if math.isinf(value) or math.isnan(value) else value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _interval_doc(interval) -> dict:
    return {
        "lo": interval.lo,
        "hi": None if math.isinf(interval.hi) else interval.hi,
        "minimax": interval.minimax,
        "mt_context": interval.mt_context,
        "unconstrained": interval.unconstrained,
    }


def _classify(m: PartialReciprocalMatrix, tol: Tolerances, scan: TriadScan) -> dict:
    g = SpecGraph.from_matrix(m)
    comps = connected_components(g)
    per_component = []
    all_chordal = True
    for comp in comps:
        ok, witness = is_chordal(g.induced(comp))
        all_chordal &= ok
        per_component.append(
            {
                "vertices": _one_based(comp),
                "chordal": ok,
                "witness_cycle": _one_based(comp[v] for v in witness) if witness else None,
            }
        )
    pc_plus, witness_edge = is_pc_plus(m, tol)
    return {
        "n": m.n,
        "unspecified_pairs": [_one_based(e) for e in m.missing_pairs()],
        "components": per_component,
        "all_components_chordal": all_chordal,
        "pcm": scan.pcm,
        "pc_plus": pc_plus,
        "pc_plus_witness_edge": _one_based(witness_edge) if witness_edge else None,
        "consistent_completion_exists": (scan.pcm and all_chordal) or pc_plus,
    }


def _measures_doc(scan: TriadScan) -> dict:
    worst = None
    if scan.worst is not None:
        indices, value = scan.worst.worst_orientation()
        worst = {"indices": _one_based(indices), "value": value}
    return {"mt": scan.mt, "koczkodaj": scan.koczkodaj, "specified_triads": scan.count,
            "max_triad": worst}


def _tol_from_args(args) -> Tolerances:
    return Tolerances(rec=args.tol_rec, cons=args.tol_cons, cmp=args.tol_cmp)


def _emit(report: dict, args) -> None:
    if args.trace:
        print(json.dumps(_jsonable(report), indent=2))
        return
    _print_human(report)


def _print_human(report: dict) -> None:
    cls = report.get("classification")
    if cls:
        print(f"n = {cls['n']}")
        for comp in cls["components"]:
            verts = ",".join(str(v) for v in comp["vertices"])
            line = f"component {{{verts}}}: chordal = {'yes' if comp['chordal'] else 'no'}"
            if comp["witness_cycle"]:
                line += f" (chordless cycle {'-'.join(map(str, comp['witness_cycle']))})"
            print(line)
        print(f"PCM: {'yes' if cls['pcm'] else 'no'}")
        pcp = f"PC+: {'yes' if cls['pc_plus'] else 'no'}"
        if cls["pc_plus_witness_edge"]:
            i, j = cls["pc_plus_witness_edge"]
            pcp += f" (witness edge {{{i},{j}}})"
        print(pcp)
    meas = report.get("measures")
    if meas:
        print(f"MT = {_fmt(meas['mt'])}")
        print(f"K = {_fmt(meas['koczkodaj'])}")
        if meas["max_triad"]:
            idx = ",".join(map(str, meas["max_triad"]["indices"]))
            print(f"max triad: c({idx}) = {_fmt(meas['max_triad']['value'])}")
        print(f"fully specified triads: {meas['specified_triads']}")
    if cls:
        print(
            "consistent completion possible: "
            + ("yes" if cls["consistent_completion_exists"] else "no")
        )
    comp = report.get("completion")
    if comp:
        print(f"mode: {comp['mode']}")
        for step in comp["steps"]:
            i, j = step["edge"]
            line = f"filled ({i},{j}) = {_fmt(step['value'])}"
            if step.get("interval") and not step["interval"]["unconstrained"]:
                line += (
                    f"  interval [{_fmt(step['interval']['lo'])},"
                    f" {_fmt(step['interval']['hi'])}]"
                )
            print(line)
        print(f"MT before = {_fmt(comp['mt_before'])}, MT after = {_fmt(comp['mt_after'])}")
    red = report.get("reduction")
    if red:
        for step in red["steps"]:
            i, j = step["edge"]
            print(
                f"changed ({i},{j}): {_fmt(step['old_value'])} -> {_fmt(step['new_value'])}"
                f"  MT {_fmt(step['mt_before'])} -> {_fmt(step['mt_after'])}"
                + ("  [tie]" if step["tie"] else "")
            )
        print(f"stop reason: {red['stop_reason']}")
        print(f"MT = {_fmt(red['mt_final'])} (was {_fmt(red['mt_initial'])})")
    matrix = report.get("matrix")
    if matrix and not report.get("matrix_written"):
        print("matrix:")
        for row in matrix:
            print("  " + ",".join(row))


def cmd_check(args) -> int:
    tol = _tol_from_args(args)
    m, _ = load_matrix(args.path, tol)
    scan = triad_scan(m, tol)
    cls = _classify(m, tol, scan)
    report = {
        "command": "check",
        "input": args.path,
        "classification": cls,
        "measures": _measures_doc(scan),
    }
    _emit(report, args)
    return 0 if cls["consistent_completion_exists"] else 1


def cmd_measure(args) -> int:
    tol = _tol_from_args(args)
    m, tokens = load_matrix(args.path, tol)
    report = {
        "command": "measure",
        "input": args.path,
        "measures": _measures_doc(triad_scan(m, tol)),
        "matrix": [row[:] for row in tokens],
    }
    report["matrix_written"] = True  # matrix came from the input; don't echo it
    _emit(report, args)
    return 0


def _completion_steps_doc(report: CompletionReport) -> list[dict]:
    return [
        {
            "edge": _one_based(step.edge),
            "interval": _interval_doc(step.interval),
            "value": step.value,
            "mt_before": step.mt_before,
            "mt_after": step.mt_after,
        }
        for step in report.steps
    ]


def _filled_entries_doc(before: PartialReciprocalMatrix, after) -> list[dict]:
    return [
        {
            "edge": _one_based((i, j)),
            "interval": None,
            "value": float(after.entries[i, j]),
        }
        for (i, j) in before.missing_pairs()
    ]


def cmd_complete(args) -> int:
    tol = _tol_from_args(args)
    m, tokens = load_matrix(args.path, tol)
    if m.is_complete():
        raise MatrixFileError("matrix has no unspecified entries; nothing to complete")
    try:
        join_u, join_v = (int(c) for c in args.join_cols.split(","))
    except ValueError:
        raise MatrixFileError("--join-cols expects two comma-separated one-based indices")
    if min(join_u, join_v) < 1:
        raise MatrixFileError(f"--join-cols {args.join_cols}: indices start at 1")
    scan = triad_scan(m, tol)
    cls = _classify(m, tol, scan)
    # Blocks are merged left to right, so u indexes the first block at the
    # first join and v indexes every later block.
    sizes = [len(comp["vertices"]) for comp in cls["components"]]
    if len(sizes) > 1 and (join_u > sizes[0] or join_v > min(sizes[1:])):
        raise MatrixFileError(
            f"--join-cols {args.join_cols}: out of range for blocks of sizes {sizes}"
        )
    join = {"join_scale": args.join_k, "join_u": join_u - 1, "join_v": join_v - 1}
    mode = args.mode
    if mode == "auto":
        mode = "consistent" if cls["consistent_completion_exists"] else "mt-preserving"
    joins: list = []
    if mode == "consistent":
        # At mt = 1 every feasible interval collapses to the consistent
        # value.  A chordal PCM goes to the mt-preserving fill rather than to
        # tree weights: near the tolerance edge tree weights can let mt grow,
        # or fail PC+ outright.
        if cls["pcm"] and cls["all_components_chordal"]:
            result = complete_mt_preserving(m, selection="minimax", tol=tol, **join).result
            engine = "consistent-chordal"
        elif cls["pc_plus"]:
            result = complete_consistent_pc_plus(m, tol, **join)
            engine = "consistent-pc-plus"
        else:
            raise NoConsistentCompletionError(
                "input is neither PC+ nor a chordal PCM; no consistent completion exists"
            )
        steps_doc = _filled_entries_doc(m, result)
    else:
        completion = complete_mt_preserving(m, selection=args.selection, tol=tol, **join)
        result = completion.result
        engine = f"mt-preserving/{args.selection}"
        steps_doc = _completion_steps_doc(completion)
        joins = [
            {
                "block_a": _one_based(j.block_a),
                "block_b": _one_based(j.block_b),
                "u_vertex": j.u_vertex + 1,
                "v_vertex": j.v_vertex + 1,
                "scale": j.scale,
            }
            for j in completion.joins
        ]
    report = {
        "command": "complete",
        "input": args.path,
        "classification": cls,
        "completion": {
            "mode": mode,
            "engine": engine,
            "steps": steps_doc,
            "joins": joins,
            "mt_before": scan.mt,
            "mt_after": mt(result),
        },
        "matrix": _matrix_rows(result, tokens),
    }
    if args.out:
        save_matrix(args.out, result, tokens)
        report["matrix_written"] = True
    _emit(report, args)
    return 0


def cmd_reduce(args) -> int:
    tol = _tol_from_args(args)
    m, tokens = load_matrix(args.path, tol)
    if not m.is_complete():
        raise MatrixFileError("reduce requires a complete matrix")
    trace = reduce(
        m.to_complete(),
        target_mt=args.target_mt,
        max_steps=args.max_steps,
        tol=tol,
        edge_rule=args.edge,
    )
    report = {
        "command": "reduce",
        "input": args.path,
        "reduction": {
            "steps": [
                {
                    "edge": _one_based(step.edge),
                    "old_value": step.old_value,
                    "new_value": step.new_value,
                    "interval": _interval_doc(step.interval),
                    "mt_before": step.mt_before,
                    "mt_after": step.mt_after,
                    "tie": step.tie,
                }
                for step in trace.steps
            ],
            "stop_reason": trace.stop_reason,
            "mt_initial": trace.mt_initial,
            "mt_final": trace.mt_final,
        },
        "matrix": _matrix_rows(trace.result, tokens),
    }
    if args.out:
        save_matrix(args.out, trace.result, tokens)
        report["matrix_written"] = True
    _emit(report, args)
    reached = trace.mt_final <= args.target_mt * (1.0 + tol.cmp)
    return 0 if reached else 1


def _matrix_rows(m: PartialReciprocalMatrix, tokens) -> list[list[str]]:
    return [row.split(",") for row in format_matrix(m, tokens).splitlines()]


def _add_common(sp) -> None:
    sp.add_argument("path", help="matrix file (CSV cells; '?' = unspecified; '#' comments)")
    sp.add_argument("--tol-rec", type=float, default=1e-9, help="reciprocity tolerance")
    sp.add_argument("--tol-cons", type=float, default=1e-9, help="consistency tolerance")
    sp.add_argument("--tol-cmp", type=float, default=1e-9, help="comparison tolerance")
    sp.add_argument(
        "--trace", action="store_true", help="emit a machine-readable JSON report on stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadcomplete",
        description="Complete and repair pairwise-comparison matrices while "
        "controlling the maximum triad product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="classify a matrix file")
    _add_common(check)
    check.set_defaults(func=cmd_check)

    complete = sub.add_parser("complete", help="fill the unspecified entries")
    _add_common(complete)
    complete.add_argument(
        "--mode",
        choices=("auto", "consistent", "mt-preserving"),
        default="auto",
        help="auto picks consistent when possible, else mt-preserving",
    )
    complete.add_argument(
        "--selection",
        choices=SELECTIONS,
        default="minimax",
        help="value picked inside each feasible interval (mt-preserving mode)",
    )
    complete.add_argument("--join-k", type=float, default=1.0, help="cross-block scale")
    complete.add_argument(
        "--join-cols",
        default="1,1",
        help="one-based column choice within each joined block, as 'u,v'",
    )
    complete.add_argument("--out", help="write the completed matrix to this file")
    complete.set_defaults(func=cmd_complete)

    red = sub.add_parser("reduce", help="reduce the measure of a complete matrix")
    _add_common(red)
    red.add_argument("--target-mt", type=float, default=1.0, help="stop once MT is at most this")
    red.add_argument("--max-steps", type=int, default=32, help="entry-change budget")
    red.add_argument(
        "--edge",
        choices=EDGE_RULES,
        default="best",
        help="'best' tries all three edges of the worst triad and keeps the "
        "lowest measure; 'paper' is the classic single-entry variant that "
        "re-solves only the triad's (min,max) entry",
    )
    red.add_argument("--out", help="write the repaired matrix to this file")
    red.set_defaults(func=cmd_reduce)

    measure = sub.add_parser("measure", help="report MT, K and the worst triad")
    _add_common(measure)
    measure.set_defaults(func=cmd_measure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CompletionError, MatrixTooSmallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
