"""The CLI's bytes on every shipped matrix file are pinned.

``tests/golden/<name>.json`` maps each command of ``scripts/cli_digest.py``
on ``data/<name>.csv`` to its exit code, stdout, stderr and ``--out``
text, recorded before the trace emitter and the file writer were
rewritten.  An entry whose bytes a change alters on purpose is re-recorded,
and CHANGES.md lists it.  Commands run in-process from the repository root with
relative paths, so the JSON report's ``input`` field is stable.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


@pytest.mark.parametrize("csv", sorted(p.name for p in (ROOT / "data").glob("*.csv")))
def test_cli_output_matches_golden(csv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads((GOLDEN / csv.replace(".csv", ".json")).read_text(encoding="utf-8"))
    argvs = cli_digest.commands(f"data/{csv}")
    assert list(golden) == [" ".join(argv) for argv in argvs]
    out = str(tmp_path / "out.csv")
    for argv in argvs:
        code, stdout, stderr, written = cli_digest.run(argv, out)
        want = golden[" ".join(argv)]
        got = {
            "exit": code,
            "stdout": stdout,
            "stderr": stderr,
            "out": None if written is None else written.decode("utf-8"),
        }
        assert got == want, " ".join(argv)
