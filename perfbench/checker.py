"""Independent checks on the outputs of one benchmark operation.

Nothing here imports ``triadcomplete``: matrix files are parsed with
``fractions`` and the maximum triad product (MT) is recomputed as a numpy
log-domain maximum over the fully specified triads.  Each check returns a
list of problems; an empty list means the operation's outputs are correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from workloads import MAX_STEPS, TARGET_MT, Instance

REL = 1e-9  # relative tolerance for every comparison of values and MT


def tokens(text: str) -> list[list[str]]:
    """Cell tokens of a matrix file; ``#`` comment lines and blank lines are skipped."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([cell.strip() for cell in line.split(",")])
    return rows


def values(grid: list[list[str]]) -> np.ndarray:
    """Float matrix of a token grid, NaN where a cell is ``?``."""
    return np.array(
        [[math.nan if t == "?" else float(Fraction(t) if "/" in t else t) for t in row]
         for row in grid]
    )


def mt(a: np.ndarray) -> float:
    """Maximum oriented triad product a[i,j] * a[j,k] * a[k,i] over specified triads.

    Computed as exp of the largest log-domain sum; NaN (unspecified) cells
    poison exactly the incomplete triads, which nanmax skips.  Degenerate
    triads with i == k contribute log 1 = 0, so the result is at least 1.
    """
    logs = np.log(a)
    best = 0.0
    for i in range(a.shape[0]):
        best = max(best, float(np.nanmax(logs[i, :, None] + logs + logs[None, :, i])))
    return math.exp(best)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL * max(abs(x), abs(y))


def _complete_reciprocal(a: np.ndarray, n: int) -> list[str]:
    if a.shape != (n, n):
        return [f"output is {a.shape}, expected {(n, n)}"]
    if np.isnan(a).any():
        return ["output has unspecified cells"]
    if not (np.isfinite(a).all() and (a > 0).all()):
        return ["output has a non-positive or non-finite cell"]
    if np.abs(np.diag(a) - 1.0).max() > REL:
        return ["output diagonal is not 1"]
    if np.abs(a * a.T - 1.0).max() > REL:
        return ["output is not reciprocal"]
    return []


def _kept_tokens(src: list[list[str]], out: list[list[str]], changed: set) -> list[str]:
    for i, row in enumerate(src):
        for j, tok in enumerate(row):
            if tok != "?" and (i, j) not in changed and out[i][j] != tok:
                return [f"input cell ({i + 1},{j + 1}) {tok!r} was rewritten as {out[i][j]!r}"]
    return []


def _weights_reproduced(inst: Instance, a: np.ndarray) -> list[str]:
    w = np.array(inst.weights, dtype=float)
    for comp in inst.components:
        idx = np.array(comp)
        want = w[idx, None] / w[None, idx]
        if np.abs(a[np.ix_(idx, idx)] / want - 1.0).max() > REL:
            return [f"consistent completion differs from the generating weights on {comp}"]
    return []


def _exit(label: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{label} exited {got}, expected {want}"]


def _human_mt(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("MT = "):
            return float(line[5:])
    raise ValueError("no 'MT = ' line in the output")


def _check_completion(inst, src, mt_in, code, stdout, out_text) -> tuple[list[str], float, int]:
    problems = _exit("complete", code, 0)
    if problems:
        return problems, math.nan, 0
    out = tokens(out_text)
    a = values(out)
    problems = _complete_reciprocal(a, inst.n)
    if problems:
        return problems, math.nan, 0
    mt_out = mt(a)
    doc = json.loads(stdout)["completion"]
    if mt_out > mt_in * (1.0 + REL):
        problems.append(f"completion raised MT from {mt_in!r} to {mt_out!r}")
    if not (_close(doc["mt_before"], mt_in) and _close(doc["mt_after"], mt_out)):
        problems.append("trace MT fields disagree with the recomputed MT")
    for step in doc["steps"]:
        i, j = (v - 1 for v in step["edge"])
        if not _close(step["value"], a[i, j]):
            problems.append(f"trace step value for ({i + 1},{j + 1}) differs from the file")
            break
        if "mt_after" in step and step["mt_after"] > mt_in * (1.0 + REL):
            problems.append(f"trace step at ({i + 1},{j + 1}) raised MT")
            break
    problems += _kept_tokens(src, out, set())
    if inst.weights is not None:
        problems += _weights_reproduced(inst, a)
    return problems, mt_out, len(doc["steps"])


def _check_reduction(inst, src, mt_in, code, stdout, out_text) -> tuple[list[str], float, int]:
    if code not in (0, 1):
        return [f"reduce exited {code}"], math.nan, 0
    out = tokens(out_text)
    a = values(out)
    problems = _complete_reciprocal(a, inst.n)
    if problems:
        return problems, math.nan, 0
    mt_out = mt(a)
    problems += _exit("reduce", code, 0 if mt_out <= TARGET_MT * (1.0 + REL) else 1)
    doc = json.loads(stdout)["reduction"]
    if len(doc["steps"]) > MAX_STEPS:
        problems.append(f"reduce took {len(doc['steps'])} steps, budget {MAX_STEPS}")
    if not (_close(doc["mt_initial"], mt_in) and _close(doc["mt_final"], mt_out)):
        problems.append("trace MT fields disagree with the recomputed MT")
    # Replay the steps on the input: each must match the trace and never raise MT.
    replay = values(src)
    changed = set()
    previous = mt_in
    for step in doc["steps"]:
        i, j = (v - 1 for v in step["edge"])
        replay[i, j], replay[j, i] = step["new_value"], 1.0 / step["new_value"]
        changed |= {(i, j), (j, i)}
        now = mt(replay)
        if not (_close(step["mt_before"], previous) and _close(step["mt_after"], now)):
            problems.append(f"trace step at ({i + 1},{j + 1}) disagrees with the replayed MT")
            break
        if now > previous * (1.0 + REL):
            problems.append(f"reduce step at ({i + 1},{j + 1}) raised MT")
            break
        previous = now
    if np.abs(replay / a - 1.0).max() > REL:
        problems.append("replayed trace steps do not reproduce the output file")
    if mt_out > mt_in * (1.0 + REL):
        problems.append(f"reduce raised MT from {mt_in!r} to {mt_out!r}")
    problems += _kept_tokens(src, out, changed)
    return problems, mt_out, len(doc["steps"])


class Outcome(NamedTuple):
    problems: list[str]
    mt_in: float
    mt_out: float
    steps: int  # fill steps (complete) or applied steps (reduce) in the trace JSON


def check_operation(inst: Instance, results, out_text: str) -> Outcome:
    """Check one operation and recompute its input and output MT.

    ``results`` holds one ``(argv, exit code, stdout)`` per CLI call, in the
    order ``workloads.commands`` gave them; ``out_text`` is the ``--out``
    file the last call wrote.
    """
    src = tokens(inst.text)
    mt_in = mt(values(src))
    problems: list[str] = []
    codes = [code for _, code, _ in results]
    if inst.workload == "chordal-fill":
        # The pattern is chordal by construction, so consistent triads
        # (MT = 1) are exactly the consistently completable inputs.
        problems += _exit("check", codes[0], 0 if mt_in <= 1.0 + REL else 1)
        more, mt_out, steps = _check_completion(inst, src, mt_in, codes[1], results[1][2], out_text)
    elif inst.workload == "reduce-repair":
        problems += _exit("measure", codes[0], 0)
        # The human report prints MT to 12 significant digits.
        if not problems and abs(_human_mt(results[0][2]) / mt_in - 1.0) > 1e-11:
            problems.append("measure printed a different MT")
        more, mt_out, steps = _check_reduction(inst, src, mt_in, codes[1], results[1][2], out_text)
    else:
        more, mt_out, steps = _check_completion(inst, src, mt_in, codes[0], results[0][2], out_text)
    return Outcome(problems + more, mt_in, mt_out, steps)
