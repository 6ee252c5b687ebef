"""The example scripts run end to end against the package in ``src/``."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triadcomplete
from triadcomplete import load_matrix

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


def load_cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    return cli_digest


def test_cli_digest_is_stable():
    cli_digest = load_cli_digest()
    csvs = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "data").glob("*.csv"))
    runs = [run_script("cli_digest.py", *csvs) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
    line = re.compile(r"exit=[012] stdout=[0-9a-f]{64} stderr=[0-9a-f]{64} out=([0-9a-f]{64}|-) (.+)")
    matches = [line.fullmatch(text) for text in runs[0].stdout.splitlines()]
    assert all(matches)
    assert [m.group(2) for m in matches] == [
        " ".join(argv) for csv in csvs for argv in cli_digest.commands(csv)
    ]
    assert runs[0].stdout == runs[1].stdout


def test_cli_digest_writes_seeded_chordal_files(tmp_path):
    cli_digest = load_cli_digest()
    names = cli_digest.write_chordal(7, tmp_path)
    assert sorted(names) == sorted(p.name for p in tmp_path.iterdir())
    sizes = []
    for name in names:
        m = load_matrix(tmp_path / name)[0]
        assert not any(m.graph.chordless_cycles) and not m.is_complete()
        sizes.append([len(comp) for comp in m.graph.components])
    assert sizes == [[96], [48], [64], [32, 32], [128], [128]]
    again = tmp_path / "again"
    again.mkdir()
    assert cli_digest.write_chordal(7, again) == names
    assert all((tmp_path / name).read_text() == (again / name).read_text() for name in names)


def test_cli_digest_writes_the_benchmark_instances(tmp_path):
    pytest.importorskip("networkx")  # perfbench/workloads.py checks its patterns with it
    cli_digest = load_cli_digest()
    names = cli_digest.write_instances(101, tmp_path)
    assert len(names) == len(set(names)) == 108
    assert sorted(names) == sorted(p.name for p in tmp_path.iterdir())
    assert names[0] == "chordal-fill-00.csv" and names[-1] == "consistent-large-35.csv"
    again = tmp_path / "again"
    again.mkdir()
    assert cli_digest.write_instances(101, again) == names
    assert all((tmp_path / name).read_text() == (again / name).read_text() for name in names)
    with pytest.raises(SystemExit) as exc:
        cli_digest.main([])
    assert exc.value.code == 2


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("## Library\n")
    library = readme[start : readme.index("\n## ", start)]
    (block,) = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(block, "README.md", "exec", optimize=0), {})  # its asserts run under -O too
    # The reference names every public name, so the two cannot drift apart.
    assert set(triadcomplete.__all__) <= set(re.findall(r"`(\w+)", library))


def test_mutation_sample_names_live_code_and_tests():
    # Each mutant's old text occurs exactly once under src/, in the file it
    # names, so a refactor that moves or rewrites a check shows here, and
    # each killing test's file exists.
    spec = importlib.util.spec_from_file_location(
        "mutation_sample", ROOT / "scripts" / "mutation_sample.py"
    )
    mutation_sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutation_sample)
    package = ROOT / "src" / "triadcomplete"
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    for path, old, new, test in mutation_sample.MUTANTS:
        assert sum(text.count(old) for text in sources.values()) == 1, old
        assert old in sources[path] and new != old
        assert (ROOT / test.split("::")[0]).is_file()
