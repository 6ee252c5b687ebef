"""Digest the CLI's output on matrix files, one line per command.

Runs a fixed command set in-process on each FILE: ``check``, ``measure``,
``complete`` and ``reduce`` in human mode and with ``--trace``, each with
and without ``--out`` where it applies, and ``complete --mode
mt-preserving --trace`` with each ``--selection``.  Each line gives the
exit code and the sha256 of stdout, stderr and the ``--out`` file, then
the command.  Run it at two commits and ``diff`` the output to check that
the CLI's bytes did not change:

    python scripts/cli_digest.py data/*.csv

Paths are printed as given, and the JSON report echoes its input path, so
run both sides from the same directory with the same relative paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from triadcomplete.cli import main as cli_main  # noqa: E402
from triadcomplete.completion import SELECTIONS  # noqa: E402

OUT = "{out}"  # placeholder for the --out path in the printed commands


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


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: cli_digest.py FILE...", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.csv")
        for path in paths:
            for cmd in commands(path):
                code, stdout, stderr, written = run(cmd, out)
                print(
                    f"exit={code} stdout={_sha(stdout.encode())}"
                    f" stderr={_sha(stderr.encode())} out={_sha(written)} {' '.join(cmd)}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
