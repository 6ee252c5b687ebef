"""Seeded closed-loop benchmark of the triadcomplete command line.

    python3 perfbench/run.py --workload chordal-fill --seed 1 --seconds 30 --trace 0

One client calls ``triadcomplete.cli.main(argv)`` in this process, one
operation after another, with stdout captured.  An operation is the
workload's CLI calls on one generated file (see ``workloads.commands``).
Every output is checked by ``checker.py`` without the package's help.

A run generates ``INSTANCES`` files from the seed and makes as many whole
passes over them as fit in ``--seconds`` of CLI time (at least two untraced);
every pass over an instance is one operation.  An untraced run first times
``SETUP_RUNS`` fresh set-up interpreters (see ``setup_seconds``), and
afterwards runs ``MEMORY_INSTANCES`` of its largest instances once more
under ``tracemalloc`` for the memory peak.

Times are corrected for host load.  The host is shared: back-to-back
probes differed by up to 30% at CPU/wall 1.02, and over minutes whole
runs slowed by up to 1.9x.  So ``reference_work``, a fixed few
milliseconds of benchmark-owned work, is timed before every operation,
and each measured time is scaled by ``REFERENCE_S`` over the median of
the reference timings around it.  Reported times therefore read as on a
host where ``reference_work`` takes ``REFERENCE_S``.  The uncorrected
figures are printed on the lines before the JSON result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation both untraced and traced, in alternating order, and prints the
per-layer metrics from the spans of ``spans.py``.  The last stdout line is
the JSON result; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread, here and in the set-up interpreters, before
# numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

INSTANCES = 36  # per run; 12 per size, so each data kind appears at every size
SETUP_RUNS = 12  # set-up interpreters per untraced run
MEMORY_INSTANCES = 2  # largest instances rerun under tracemalloc; it slows them 4-7x
# reference_work on an unloaded x86-64 VM of this repository's benchmark host
# (2 vCPUs), where it took 1.7-2.0 ms at its fastest.
REFERENCE_S = 0.002
REFERENCE_WINDOW = 3  # reference timings on each side of a timing that correct it
# Set-up interpreters are load-corrected by a fresh interpreter that only imports
# numpy, started next to each, and read as if that one took REFERENCE_SETUP_S.
# Its run medians were 0.12-0.25 s on the shared 2-vCPU x86-64 VM.
REFERENCE_SETUP_S = 0.15
REFERENCE_SETUP_CODE = "import numpy"
# latency_tail_ms percentile, fixed so that runs of two and three passes report
# the same one.
TAIL_PCT = 85
MIN_PASSES = 2  # untraced, so that 72 operations and 10 beyond the tail are timed
WARMUP_INDEX = 3 * 10**6  # far from the loop's indices; smallest size
SETUP_CODE = "import triadcomplete, triadcomplete.cli as c; c.build_parser()"


def reference_work() -> int:
    """Fixed Python and numpy work of a few ms, shaped like the package's own.

    It builds and walks a small graph of sets, sorts small tuples and scans
    a 20x20 array by outer products, and never calls the package.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(200)}
    for k in range(600):
        a, b = (k * 7919) % 200, (k * 104729 + 13) % 200
        adj[a].add(b)
        adj[b].add(a)
    seen, order = {0}, [0]
    for v in order:
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
    triples = sorted(((i, j, float(i * j)) for i in range(60) for j in range(60)),
                     key=lambda t: -t[2])
    a = np.arange(1.0, 401.0).reshape(20, 20)
    peak = max(float(np.nanmax(np.outer(a[:, j], a[j, :]) * a.T)) for j in range(20))
    return len(order) + len(triples) + int(peak > 0)


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


@dataclass
class Op:
    """One instance and the timings of every pass over it."""

    inst: workloads.Instance
    path: str
    seconds: list[float] = field(default_factory=list)  # load-corrected, untraced
    traced_seconds: list[float] = field(default_factory=list)  # load-corrected, traced
    measured: list[float] = field(default_factory=list)  # uncorrected, untraced
    traced_measured: list[float] = field(default_factory=list)  # uncorrected, traced
    digest: bytes | None = None  # of the first run's results, once it passed the checker
    mt_in: float = math.nan
    mt_out: float = math.nan
    steps: int = 0


class Runner:
    def __init__(self, cli, workload: str, seed: int, work: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out_path = str(work / "out.csv")
        self.reference: list[float] = []  # reference_work seconds before each operation run
        self.attempted = 0
        self.failures: list[str] = []
        self.profile = spans.Profile()
        self.traced_ops = 0
        self.traced_steps = 0
        self.bytes_copied = 0  # computed: 9 n^2 bytes (float entries + bool mask) per build
        self.triads_scanned = 0  # computed: n^3 oriented triads per mt call
        self.peak_bytes = 0  # largest tracemalloc peak of one operation's CLI calls

    def new_op(self, index: int) -> Op:
        inst = workloads.make_instance(self.workload, self.seed, index)
        path = self.work / f"in{index}.csv"
        path.write_text(inst.text, encoding="utf-8")
        return Op(inst, str(path))

    def run(self, op: Op, tracer: spans.Tracer | None = None, memory: bool = False) -> float:
        """Run one operation, check it, and return its CLI seconds.

        The first run of an instance is checked in full; later runs must
        reproduce its exit codes, stdout and output file exactly.  With
        ``memory`` the CLI calls run under ``tracemalloc`` and their peak
        feeds ``peak_bytes``; the check runs after tracing stops.
        """
        self.attempted += 1
        results = []
        crash = None
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        if memory:
            tracemalloc.start()
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                for argv in workloads.commands(self.workload, op.path, self.out_path):
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = self.cli.main(argv)
                    results.append((argv, code, stdout.getvalue()))
            except Exception:  # the loop must go on; the operation counts as failed
                crash = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        if memory:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        recorded = tracer.take() if tracer is not None else None
        if crash is None:
            problem = self._check(op, results)
        else:
            problem = crash
        if problem:
            self.failures.append(f"instance {op.inst.index}: {problem}")
        elif recorded is not None:
            self._fold(op, recorded)
        return elapsed

    def _check(self, op: Op, results) -> str | None:
        try:
            with open(self.out_path, encoding="utf-8") as handle:
                out_text = handle.read()
            digest = hashlib.blake2b(repr((results, out_text)).encode()).digest()
            if op.digest is not None:
                return None if digest == op.digest else "output differs from the first run"
            outcome = checker.check_operation(op.inst, results, out_text)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"check could not run: {exc!r}"
        if outcome.problems:
            return outcome.problems[0]
        op.digest, op.mt_in, op.mt_out, op.steps = digest, *outcome[1:]
        return None

    def _fold(self, op: Op, recorded: list[spans.Span]) -> None:
        one = self.profile.add(recorded)
        n = op.inst.n
        self.traced_ops += 1
        self.traced_steps += op.steps
        self.bytes_copied += 9 * n * n * one.calls[BUILD]
        self.triads_scanned += n**3 * one.calls["measures.mt"]


BUILD = "matrices.PartialReciprocalMatrix.__post_init__"


def closed_loop(runner: Runner, seconds: float, trace: bool) -> list[Op]:
    """Whole passes over INSTANCES instances within ``seconds`` of CLI time.

    A pass starts only while the previous one would fit again, so every
    instance is timed the same number of times.  The first pass always
    runs, and untraced, the first MIN_PASSES.
    Traced runs time each instance twice per pass, untraced and traced,
    alternating which goes first.
    """
    tracer = spans.Tracer() if trace else None
    ops = [runner.new_op(index) for index in range(INSTANCES)]
    timings: list[tuple[Op, bool, float]] = []
    busy, last_pass = 0.0, 0.0
    for p in itertools.count():
        if p >= (1 if trace else MIN_PASSES) and busy + last_pass > seconds:
            break
        pass_start = busy
        for op in ops:
            order = (None, tracer) if (op.inst.index + p) % 2 else (tracer, None)
            for t in order if trace else (None,):
                runner.reference.append(time_reference())
                elapsed = runner.run(op, t)
                timings.append((op, t is not None, elapsed))
                busy += elapsed
        last_pass = busy - pass_start
    for i, (op, traced, elapsed) in enumerate(timings):
        local = runner.reference[max(i - REFERENCE_WINDOW, 0):i + REFERENCE_WINDOW + 1]
        corrected = elapsed * REFERENCE_S / statistics.median(local)
        if traced:
            op.traced_seconds.append(corrected)
            op.traced_measured.append(elapsed)
        else:
            op.seconds.append(corrected)
            op.measured.append(elapsed)
    return ops


@dataclass
class Setup:
    """Seconds of each set-up interpreter, load-corrected and as measured, and
    of the numpy-only interpreter started next to it."""

    corrected: list[float] = field(default_factory=list)
    measured: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)


def setup_seconds() -> Setup:
    """Time SETUP_RUNS fresh interpreters that import the package and build
    the parser, each next to one that only imports numpy, in alternating
    order.  Each set-up time is scaled by REFERENCE_SETUP_S over the
    numpy-only time.  Host load slows a start-up much as it slows the
    start-up next to it, and unlike ``reference_work``: on the shared 2-vCPU
    host, medians of 11 set-up interpreters corrected by ``reference_work``
    spread by a third across back-to-back runs, and corrected this way by 2%.
    """
    setup = Setup()
    for k in range(SETUP_RUNS):
        codes = [SETUP_CODE, REFERENCE_SETUP_CODE]
        if k % 2:
            codes.reverse()
        seconds = {code: interpreter_seconds(code) for code in codes}
        setup.measured.append(seconds[SETUP_CODE])
        setup.reference.append(seconds[REFERENCE_SETUP_CODE])
        setup.corrected.append(seconds[SETUP_CODE] * REFERENCE_SETUP_S / setup.reference[-1])
    return setup


def interpreter_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code`` with the package on its path."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter running {code!r} failed: {proc.stderr.strip()}")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, int]:
    """The nearest-rank TAIL_PCT percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    k = math.ceil(TAIL_PCT * len(ordered) / 100) - 1
    return ordered[k], len(ordered) - 1 - k


def memory_pass(runner: Runner, ops: list[Op]) -> None:
    """Rerun the first MEMORY_INSTANCES of the largest instances, untimed,
    under ``tracemalloc``; their outputs are checked like any other."""
    largest = max(op.inst.n for op in ops)
    for op in [op for op in ops if op.inst.n == largest][:MEMORY_INSTANCES]:
        runner.run(op, memory=True)


def end_to_end(runner: Runner, ops: list[Op], setup: Setup):
    latency = [s for op in ops for s in op.seconds]
    measured = [s for op in ops for s in op.measured]
    tail_s, beyond = tail(latency)
    checked = [op for op in ops if op.digest is not None]
    goal = [op.mt_out / (workloads.TARGET_MT if op.inst.workload == "reduce-repair" else op.mt_in)
            for op in checked]
    goal_geomean = math.exp(statistics.fmean(math.log(g) for g in goal))
    out_geomean = math.exp(statistics.fmean(math.log(op.mt_out) for op in checked))
    passes = len(ops[0].seconds)
    metrics = {
        "ops_per_s": (len(latency) / sum(latency), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latency), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setup.corrected), "s"),
        "peak_mem_mb": (runner.peak_bytes / 2**20, "MB"),
        "output_mt_over_goal": (goal_geomean, "ratio"),
    }
    notes = [
        _reference_note(runner.reference),
        f"uncorrected: ops_per_s {len(measured) / sum(measured):.6g} 1/s, latency_p50_ms "
        f"{1000 * statistics.median(measured):.6g} ms, latency_tail_ms "
        f"{1000 * tail(measured)[0]:.6g} ms, "
        f"setup_s {statistics.median(setup.measured):.6g} s",
        f"latency_tail_ms is p{TAIL_PCT}: {beyond} of {len(latency)} operations lie beyond it",
        f"{len(latency)} operations: {passes} passes over {len(ops)} instances",
        f"setup_s is the median of {SETUP_RUNS} fresh interpreters, each scaled by "
        f"{REFERENCE_SETUP_S:g} s over a numpy-only interpreter started next to it; measured "
        + ", ".join(f"{s:.3f}" for s in setup.measured) + " s, numpy-only median "
        f"{statistics.median(setup.reference):.3f} s",
        f"peak_mem_mb is the largest tracemalloc peak of one operation's CLI calls, over "
        f"{MEMORY_INSTANCES} reruns of instances of the largest size",
        f"output_mt_over_goal is the geometric mean over the {len(goal)} checked instances; "
        f"their median is {statistics.median(goal):.6g}",
        f"output_mt_geomean = {out_geomean:.6g} (not a JSON metric: on chordal-fill it is "
        "the inputs' MT, which the seed sets)",
    ]
    return metrics, notes


def _reference_note(reference: list[float]) -> str:
    low, mid, high = (1000 * q for q in statistics.quantiles(reference, n=4))
    return (f"load correction: times are scaled to reference_work = {1000 * REFERENCE_S:g} ms; "
            f"here it took {1000 * min(reference):.3f} ms at its fastest and {mid:.3f} ms at "
            f"its median (quartiles {low:.3f}-{high:.3f}) over {len(reference)} timings")


def per_layer(runner: Runner, ops: list[Op]) -> tuple[dict, list[str]]:
    prof, count = runner.profile, max(runner.traced_ops, 1)
    factor = REFERENCE_S / statistics.median(runner.reference)

    def ms(name):
        return (1000 * factor * prof.self_s[name] / count, "ms")

    def per_op(value):
        return (value / count, "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    metrics = {"cli.self_ms": (1000 * factor * prof.layer_self_s("cli") / count, "ms")}
    for name in ("fileio.load_matrix", "fileio.format_matrix", "matrices.validate",
                 "graphs.is_chordal", "graphs.chordal_ordering", "graphs.connected_components",
                 "measures.mt", "measures.specified_triads", "measures.triad_sets_for_entry",
                 "measures.max_triad", "measures.is_pc_plus", "measures.tree_weights",
                 "completion.feasible_interval", "completion.complete_mt_preserving",
                 "completion.complete_consistent_chordal",
                 "completion.complete_consistent_pc_plus", "reduction.reduce_step"):
        metrics[f"{name}.self_ms"] = ms(name)
    for name in ("fileio.format_matrix", "graphs.is_chordal", "measures.mt",
                 "measures.specified_triads", "completion.feasible_interval",
                 "reduction.reduce_step"):
        metrics[f"{name}.calls"] = per_op(prof.calls[name])
    placed = prof.sizes["graphs.chordal_ordering"]
    tested = prof.pairs["graphs.chordal_ordering", "graphs.is_chordal"]
    reducing = runner.workload == "reduce-repair"
    applied = runner.traced_steps if reducing else 0
    metrics.update({
        "matrices.builds": per_op(prof.calls[BUILD]),
        "matrices.bytes_copied": (runner.bytes_copied / count, "B"),
        "graphs.ordering.accept_ratio": ratio(placed, tested),
        "measures.mt.triads_scanned": per_op(runner.triads_scanned),
        "measures.specified_triads.wasted_calls": per_op(
            prof.pairs["measures.triad_sets_for_entry", "measures.specified_triads"]),
        "completion.fill_steps": per_op(0 if reducing else runner.traced_steps),
        "completion.joins": per_op(prof.sizes["completion._join_components"]),
        "reduction.steps_applied": per_op(applied),
        "reduction.useful_ratio": ratio(applied, prof.calls["reduction.reduce_step"]),
        "reduction.candidates": per_op(
            prof.pairs["reduction.reduce_step", "completion.feasible_interval"]),
    })
    traced_wall = sum(sum(op.traced_measured) for op in ops)  # spans hold measured times
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_share"] = ratio(prof.layer_self_s(layer), traced_wall)
    untraced = sum(statistics.median(op.seconds) for op in ops)
    traced = sum(statistics.median(op.traced_seconds) for op in ops)
    metrics["trace.overhead"] = (traced / untraced - 1.0, "ratio")
    by_size: dict[int, list[float]] = {}
    for op in ops:
        by_size.setdefault(op.inst.n, []).append(statistics.median(op.seconds))
    sizes = sorted(by_size)
    slope = np.polyfit(np.log(sizes), np.log([statistics.median(by_size[n]) for n in sizes]), 1)[0]
    metrics["scale.exponent"] = (float(slope), "1")
    notes = []
    for engine in spans.ENGINES:
        split = {name: v for (e, name), v in prof.within.items() if e == engine}
        total = sum(split.values())
        if total > 0:
            top = sorted(split.items(), key=lambda kv: -kv[1])[:4]
            notes.append(f"{engine} ({1000 * total / max(prof.calls[engine], 1):.1f} ms measured per call) "
                         "splits as " + ", ".join(f"{name} {v / total:.1%}" for name, v in top)
                         + (" (graphs.chordal_ordering includes everything under it)"
                            if "graphs.chordal_ordering" in split else ""))
    notes += [
        "time waited: none; the package has no queues or threads, so every layer is busy time",
        _reference_note(runner.reference) + f"; self_ms values are measured x {factor:.4f}",
        f"per-layer values are per traced operation, over {runner.traced_ops} traced operations",
        "matrices.bytes_copied and measures.mt.triads_scanned are computed "
        "(9*n^2 per build, n^3 per mt call), not measured",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "triadcomplete" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from triadcomplete import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported triadcomplete from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        setup = None if args.trace else setup_seconds()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            runner = Runner(cli, args.workload, args.seed, Path(work))
            runner.run(runner.new_op(WARMUP_INDEX))  # checked, but not timed
            ops = closed_loop(runner, args.seconds, bool(args.trace))
            if not args.trace:
                memory_pass(runner, ops)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in runner.failures[:5]:
        print(f"failure: {failure}", file=sys.stderr)
    if all(op.digest is None for op in ops):
        print("error: no operation passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = per_layer(runner, ops)
    else:
        metrics, notes = end_to_end(runner, ops, setup)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s of CLI time, "
          f"closed loop, 1 client, 1 thread")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {len(runner.failures) / max(runner.attempted, 1):.6g} ratio "
          f"({len(runner.failures)} of {runner.attempted} operations failed)")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
