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
that module without changing it, and it needs networkx.
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
            names = write_instances(args.seed, instances)
            home = os.getcwd()
            os.chdir(instances)
            try:
                digest(names, out)
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
