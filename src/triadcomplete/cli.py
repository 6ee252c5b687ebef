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
import functools
import math
import operator
import sys
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .completion import (
    SELECTIONS, CompletionStep, complete_consistent_pc_plus, complete_mt_preserving
)
from .errors import (
    CompletionError, MatrixFileError, MatrixTooSmallError, NoConsistentCompletionError
)
from .fileio import format_rows, load_matrix
from .matrices import PartialReciprocalMatrix, Tolerances
from .measures import TriadScan, is_pc_plus, is_pcm, mt, triad_scan
from .reduction import EDGE_RULES, ReductionStep, reduce


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _one_based(indices) -> list[int]:
    return [int(v) + 1 for v in indices]


CHUNK_ROWS = 32  # table rows per %-fill: one chunk's text is all a table holds at once


def _scalar(value) -> str:
    """The JSON text of a str, int, float, None or bool; a non-finite float is null."""
    kind = type(value)
    if isinstance(value, str):
        return _json_string(value)
    if kind is int:
        return repr(value)
    if kind is float:
        return repr(value) if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"{kind.__name__} is not JSON serializable")


def _json(value, write, pad: str = "\n") -> None:
    """Pass ``json.dumps(value, indent=2)``, non-finite floats as null, to ``write`` in pieces.

    ``pad`` is the newline and indent that precede this value's closing bracket; its items sit
    one level (two spaces) deeper.  A dict or a list is written item by item, so the document
    is never held whole.  Besides JSON's own types it takes an int (k, m) array, written as its
    ``tolist()``, and a tuple of ``CompletionStep``s or ``ReductionStep``s, written as their
    fields with the edge one-based and the interval's ``unconstrained`` added.  Each is a
    :func:`_table`, its template formed once and filled a bounded number of rows at a time, the
    steps' floats from one memo per table that zeros bypass (``-0.0 == 0.0``).  A row of
    strings is one piece, one join when escaping leaves its strings as they are.
    """
    kind, inner = type(value), pad + "  "
    if kind is dict and value:
        between = "{" + inner
        for key, item in value.items():
            write(between + _json_string(key) + ": ")
            _json(item, write, inner)
            between = "," + inner
        write(pad + "}")
    elif kind is dict or (isinstance(value, list) or kind is tuple) and not value:
        write("{}" if kind is dict else "[]")  # a tuple only as no steps
    elif isinstance(value, list):  # a file's Cells, a row of them, or JSON's own
        try:  # a row of strings is one piece
            text = "".join(value)
        except TypeError:
            between = "[" + inner
            for item in value:
                write(between)
                _json(item, write, inner)
                between = "," + inner
            write(pad + "]")
        else:  # exactly the strings encode_basestring_ascii leaves as they are
            if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
                write("[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + pad + "]")
            else:
                write("[" + inner + ("," + inner).join(map(_json_string, value)) + pad + "]")
    elif kind is np.ndarray and value.ndim == 2 and value.dtype.kind == "i":
        _table(["%d"] * value.shape[1], value, lambda rows: rows.ravel().tolist(), write, pad)
    elif kind is tuple and set(map(type, value)) in ({CompletionStep}, {ReductionStep}):
        interval = [*vars(value[0].interval), "unconstrained"]
        row = {**dict.fromkeys(vars(value[0]), "%s"), "edge": ["%d", "%d"],
               "interval": dict.fromkeys(interval, "%s")}
        paths, at = list(row), list(row).index("interval")
        paths[at : at + 1] = [f"interval.{key}" for key in interval]  # the row's leaf order
        get, memo = operator.attrgetter(*paths), {}

        def cells(steps) -> list:
            values = []
            for step in steps:
                (i, j), *leaves = get(step)  # both record types lead with their edge
                values += i + 1, j + 1
                for x in leaves:  # zeros skip the memo (-0.0 == 0.0), as do bools (True == 1.0)
                    text = memo.get(x) if type(x) is float and x else _scalar(x)
                    values.append(text or memo.setdefault(x, _scalar(x)))
            return values

        _table(row, value, cells, write, pad)
    else:
        write(_scalar(value))


def _table(row, rows, cells, write, pad: str) -> None:
    """Pass ``_json`` of ``rows`` shaped as ``row`` to ``write``, a piece per ``CHUNK_ROWS`` rows.

    ``row``'s strings ``"%d"`` and ``"%s"`` are its unquoted slots; ``%s`` takes JSON text.
    Its %-template is formed once, and each chunk of ``rows`` fills it from ``cells(chunk)``.
    """
    inner, pieces = pad + "  ", []
    _json(row, pieces.append, inner)
    template, between = "".join(pieces).replace('"%d"', "%d").replace('"%s"', "%s"), "," + inner
    chunk = between.join([template] * CHUNK_ROWS)
    for start in range(0, len(rows), CHUNK_ROWS):
        part = rows[start : start + CHUNK_ROWS]
        if len(part) < CHUNK_ROWS:  # the last chunk
            chunk = between.join([template] * len(part))
        write((between if start else "[" + inner) + chunk % tuple(cells(part)))
    write(pad + "]" if len(rows) else "[]")


def _classify(m: PartialReciprocalMatrix, tol: Tolerances, pcm: bool) -> dict:
    all_chordal = not any(m.graph.chordless_cycles)
    pc_plus, witness_edge = is_pc_plus(m, tol)
    return {
        "n": m.n,
        "unspecified_pairs": m.missing_pairs() + 1,
        "components": [
            {"vertices": _one_based(comp), "chordal": cycle is None,
             "witness_cycle": _one_based(cycle) if cycle else None}
            for comp, cycle in zip(m.graph.components, m.graph.chordless_cycles)
        ],
        "all_components_chordal": all_chordal,
        "pcm": pcm,
        "pc_plus": pc_plus,
        "pc_plus_witness_edge": _one_based(witness_edge) if witness_edge else None,
        "consistent_completion_exists": (pcm and all_chordal) or pc_plus,
    }


def _measures_doc(scan: TriadScan) -> dict:
    worst = None
    if scan.worst is not None:
        indices, value = scan.worst.worst_orientation()
        worst = {"indices": _one_based(indices), "value": value}
    return {"mt": scan.mt, "koczkodaj": scan.koczkodaj, "specified_triads": scan.count,
            "max_triad": worst}


def _print_human(report: dict, out: str | None) -> None:
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
        if comp["mode"] == "consistent":
            for i, j in cls["unspecified_pairs"].tolist():
                print(f"filled ({i},{j}) = {_fmt(float(report['matrix'][i - 1][j - 1]))}")
        for step in comp["steps"]:
            i, j = step.edge
            print(f"filled ({i + 1},{j + 1}) = {_fmt(step.value)}"
                  f"  interval [{_fmt(step.interval.lo)}, {_fmt(step.interval.hi)}]")
        print(f"MT before = {_fmt(comp['mt_before'])}, MT after = {_fmt(comp['mt_after'])}")
    red = report.get("reduction")
    if red:
        for step in red["steps"]:
            i, j = step.edge
            tie = "  [tie]" if step.tie else ""
            print(f"changed ({i + 1},{j + 1}): {_fmt(step.old_value)} -> {_fmt(step.new_value)}"
                  f"  MT {_fmt(step.mt_before)} -> {_fmt(step.mt_after)}{tie}")
        print(f"stop reason: {red['stop_reason']}")
        print(f"MT = {_fmt(red['mt_final'])} (was {_fmt(red['mt_initial'])})")
    matrix = report.get("matrix")
    if matrix and not out:
        print("matrix:")
        for row in matrix:
            print("  " + ",".join(row))


def cmd_check(m, tokens, tol, args) -> tuple[dict, int]:
    scan = triad_scan(m, tol)
    cls = _classify(m, tol, scan.pcm)
    code = 0 if cls["consistent_completion_exists"] else 1
    return {"classification": cls, "measures": _measures_doc(scan)}, code


def cmd_measure(m, tokens, tol, args) -> tuple[dict, int]:
    return {"measures": _measures_doc(triad_scan(m, tol))}, 0


def cmd_complete(m, tokens, tol, args) -> tuple[dict, int]:
    if m.is_complete():
        raise MatrixFileError("matrix has no unspecified entries; nothing to complete")
    try:
        join_u, join_v = (int(c) for c in args.join_cols.split(","))
    except ValueError:
        raise MatrixFileError("--join-cols expects two comma-separated one-based indices")
    if min(join_u, join_v) < 1:
        raise MatrixFileError(f"--join-cols {args.join_cols}: indices start at 1")
    cls = _classify(m, tol, is_pcm(m, tol))  # one MT pass, which the engines reuse
    # Blocks are merged left to right, so u indexes the first block at the
    # first join and v indexes every later block.
    sizes = [len(comp) for comp in m.graph.components]
    if len(sizes) > 1 and (join_u > sizes[0] or join_v > min(sizes[1:])):
        raise MatrixFileError(
            f"--join-cols {args.join_cols}: out of range for blocks of sizes {sizes}"
        )
    join = {"join_scale": args.join_k, "join_u": join_u - 1, "join_v": join_v - 1}
    mode = args.mode
    if mode == "auto":
        mode = "consistent" if cls["consistent_completion_exists"] else "mt-preserving"
    steps, joins = (), []
    if mode == "consistent":
        # Neither engine's steps are reported: the filled entries are the
        # unspecified pairs, and their values those cells of the matrix.
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
    else:
        completion = complete_mt_preserving(m, selection=args.selection, tol=tol, **join)
        result = completion.result
        engine = f"mt-preserving/{args.selection}"
        steps = completion.steps
        joins = [{"block_a": _one_based(j.block_a), "block_b": _one_based(j.block_b),
                  "u_vertex": j.u_vertex + 1, "v_vertex": j.v_vertex + 1, "scale": j.scale}
                 for j in completion.joins]
    return {
        "classification": cls,
        "completion": {
            "mode": mode,
            "engine": engine,
            "steps": steps,
            "joins": joins,
            "mt_before": mt(m),
            "mt_after": mt(result),
        },
        **_matrix_sections(format_rows(result, tokens), args.out),
    }, 0


def cmd_reduce(m, tokens, tol, args) -> tuple[dict, int]:
    if not m.is_complete():
        raise MatrixFileError("reduce requires a complete matrix")
    trace = reduce(m.to_complete(), target_mt=args.target_mt, max_steps=args.max_steps, tol=tol,
                   edge_rule=args.edge)
    return {
        "reduction": {
            "steps": trace.steps,
            "stop_reason": trace.stop_reason,
            "mt_initial": trace.mt_initial,
            "mt_final": trace.mt_final,
        },
        **_matrix_sections(format_rows(trace.result, tokens), args.out),
    }, 0 if trace.mt_final <= args.target_mt * (1.0 + tol.cmp) else 1


def _matrix_sections(rows: list[list[str]], out: str | None) -> dict:
    """The report's ``matrix`` rows, cells formatted once; with ``out``, also that file's lines."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines([",".join(row) + "\n" for row in rows])
    return {"matrix": rows}


def _add_command(sub, func, help: str) -> argparse.ArgumentParser:
    """The subcommand that runs ``func``, ``cmd_<name>``, with the arguments every command takes."""
    sp = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
    sp.set_defaults(func=func)
    sp.add_argument("path", help="matrix file (CSV cells; '?' = unspecified; '#' comments)")
    sp.add_argument("--tol-rec", type=float, default=1e-9, help="reciprocity tolerance")
    sp.add_argument("--tol-cons", type=float, default=1e-9, help="consistency tolerance")
    sp.add_argument("--tol-cmp", type=float, default=1e-9, help="comparison tolerance")
    sp.add_argument(
        "--trace", action="store_true", help="emit a machine-readable JSON report on stdout"
    )
    return sp


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadcomplete",
        description="Complete and repair pairwise-comparison matrices while "
        "controlling the maximum triad product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, cmd_check, "classify a matrix file")
    complete = _add_command(sub, cmd_complete, "fill the unspecified entries")
    complete.add_argument("--mode", choices=("auto", "consistent", "mt-preserving"), default="auto",
                          help="auto picks consistent when possible, else mt-preserving")
    complete.add_argument(
        "--selection",
        choices=SELECTIONS,
        default="minimax",
        help="value picked inside each feasible interval (mt-preserving mode)",
    )
    complete.add_argument("--join-k", type=float, default=1.0, help="cross-block scale")
    complete.add_argument("--join-cols", default="1,1",
                          help="one-based column choice within each joined block, as 'u,v'")
    complete.add_argument("--out", help="write the completed matrix to this file")

    red = _add_command(sub, cmd_reduce, "reduce the measure of a complete matrix")
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

    _add_command(sub, cmd_measure, "report MT, K and the worst triad")
    return parser


def main(argv=None) -> int:
    """Parse ``argv``, load the matrix and write the report of ``args.func``.

    Each ``cmd_*`` gets the matrix, its cell tokens, the tolerances and the
    arguments, and returns its own report sections and the exit code.
    """
    args = build_parser().parse_args(argv)
    try:
        tol = Tolerances(rec=args.tol_rec, cons=args.tol_cons, cmp=args.tol_cmp)
        # Nothing here keeps the input, so it is freed before the report is written.
        sections, code = args.func(*load_matrix(args.path, tol), tol, args)
        report = {"command": args.command, "input": args.path, **sections}
        if args.trace:
            _json(report, sys.stdout.write)
            sys.stdout.write("\n")
        else:
            _print_human(report, getattr(args, "out", None))
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (CompletionError, MatrixTooSmallError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
