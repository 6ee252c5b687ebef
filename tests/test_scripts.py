"""The example scripts run end to end against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, summary",
    [
        (
            ["demo_completion.py"],
            ["stop reason: max_steps, final MT = ", "4x4 cycle with repaired data completes"],
        ),
        (
            ["random_experiments.py", "--trials", "5", "--seed", "7"],
            [
                "delete-and-recover   worst relative error: ",
                "measure preservation worst relative drift: ",
                "feasible interval    hi/lo spread: median ",
                "reduction            repaired 5/5 instances",
            ],
        ),
    ],
    ids=["demo_completion", "random_experiments"],
)
def test_script_runs(argv, summary):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for line in summary:
        assert line in proc.stdout
