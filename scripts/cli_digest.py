"""Digest the CLI's output on matrix files, one line per command.

Runs a fixed command set in-process on each FILE: ``check``, ``measure``,
``complete`` and ``reduce`` in human mode and with ``--trace``, each with
and without ``--out`` where it applies, ``reduce --edge paper --trace``,
and ``complete --mode mt-preserving --trace`` with each ``--selection``.
Each line gives the exit code and the sha256 of stdout, stderr and the
``--out`` file, then the command.  Run it at two commits and ``diff`` the
output to check that the CLI's bytes did not change:

    python scripts/cli_digest.py data/*.csv
    python scripts/cli_digest.py --seed 101

Paths are printed as given, and the JSON report echoes its input path, so
run both sides from the same directory with the same relative paths.
``--seed N`` also digests the benchmark's 108 instances for seed N (the
36 per workload that ``perfbench/run.py`` times), written by
``perfbench/workloads.py`` into a temporary directory and run from there
under relative names such as ``consistent-large-07.csv``.  It imports
that module without changing it, and it needs networkx.  Four seeded
chordal files follow them (``CHORDAL``: a star at n=96, a tree at n=48, a
clique-attached graph at n=64 and two components of 32), so the chordal
ordering and the fill are digested at sizes the benchmark never reaches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from triadcomplete.cli import main as cli_main  # noqa: E402
from triadcomplete.completion import SELECTIONS  # noqa: E402

OUT = "{out}"  # placeholder for the --out path in the printed commands
INSTANCES = 36  # per workload, as perfbench/run.py generates them


def commands(path: str) -> list[list[str]]:
    """The command set run on one matrix file; ``OUT`` marks the --out path."""
    argvs = []
    for cmd in ("check", "measure"):
        argvs += [[cmd, path], [cmd, path, "--trace"]]
    for cmd in ("complete", "reduce"):
        argvs += [
            [cmd, path],
            [cmd, path, "--trace"],
            [cmd, path, "--out", OUT],
            [cmd, path, "--trace", "--out", OUT],
        ]
    argvs.append(["reduce", path, "--edge", "paper", "--trace"])
    for selection in SELECTIONS:
        argvs.append(
            ["complete", path, "--mode", "mt-preserving", "--selection", selection, "--trace"]
        )
    return argvs


def run(argv: list[str], out: str) -> tuple[int, str, str, bytes | None]:
    """Run one command in-process; return exit code, stdout, stderr and --out bytes."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([out if arg == OUT else arg for arg in argv])
    try:
        written = Path(out).read_bytes()
    except FileNotFoundError:
        written = None
    return code, stdout.getvalue(), stderr.getvalue(), written


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def write_instances(seed: int, directory: str) -> list[str]:
    """Write the benchmark instances for ``seed`` into ``directory``; return their file names."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    names = []
    for workload in workloads.WORKLOADS:
        for index in range(INSTANCES):
            names.append(f"{workload}-{index:02d}.csv")
            text = workloads.make_instance(workload, seed, index).text
            Path(directory, names[-1]).write_text(text, encoding="utf-8")
    return names


# Chordal patterns past the benchmark's sizes: name -> (kind, size) per component.
CHORDAL = {
    "chordal-star-96.csv": [("star", 96)],
    "chordal-tree-48.csv": [("tree", 48)],
    "chordal-clique-64.csv": [("clique", 64)],
    "chordal-two-32.csv": [("clique", 32), ("tree", 32)],
}


def _chordal_edges(rng, kind: str, n: int) -> list[tuple[int, int]]:
    """A star on vertex 0, a random tree, or a clique-attached graph: each new vertex joins
    one to four vertices of an earlier clique, so the graph stays chordal."""
    if kind == "star":
        return [(0, v) for v in range(1, n)]
    if kind == "tree":
        return [(int(rng.integers(v)), v) for v in range(1, n)]
    cliques, edges = [(0,)], []
    for v in range(1, n):
        base = cliques[int(rng.integers(len(cliques)))]
        part = rng.choice(base, int(rng.integers(1, min(len(base), 4) + 1)), replace=False)
        edges += [(int(u), v) for u in part]
        cliques.append((*part.tolist(), v))
    return edges


def write_chordal(seed: int, directory: str) -> list[str]:
    """Write the ``CHORDAL`` files for ``seed`` into ``directory``; return their names.

    Components sit on shuffled labels and every specified pair is p/q, q/p with p, q in 1..9.
    """
    rng = np.random.default_rng(seed)
    for name, parts in CHORDAL.items():
        n = sum(size for _, size in parts)
        label, edges, start = rng.permutation(n).tolist(), [], 0
        for kind, size in parts:
            local = _chordal_edges(rng, kind, size)
            edges += [(label[start + u], label[start + v]) for u, v in local]
            start += size
        cells = [["1" if i == j else "?" for j in range(n)] for i in range(n)]
        for u, v in edges:
            p, q = rng.integers(1, 10, 2).tolist()
            cells[u][v], cells[v][u] = f"{p}/{q}", f"{q}/{p}"
        Path(directory, name).write_text("".join(",".join(row) + "\n" for row in cells))
    return list(CHORDAL)


def digest(paths: list[str], out: str) -> None:
    """Print one digest line per command of ``commands`` on each path."""
    for path in paths:
        for cmd in commands(path):
            code, stdout, stderr, written = run(cmd, out)
            print(
                f"exit={code} stdout={_sha(stdout.encode())}"
                f" stderr={_sha(stderr.encode())} out={_sha(written)} {' '.join(cmd)}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="FILE", help="matrix files to digest")
    parser.add_argument("--seed", type=int, help="digest the benchmark instances for this seed too")
    args = parser.parse_args(argv)
    if not args.files and args.seed is None:
        parser.error("give matrix files, --seed or both")
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.csv")
        digest(args.files, out)
        if args.seed is not None:
            instances = os.path.join(work, "instances")
            os.mkdir(instances)
            names = write_instances(args.seed, instances) + write_chordal(args.seed, instances)
            home = os.getcwd()
            os.chdir(instances)
            try:
                digest(names, out)
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
