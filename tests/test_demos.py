import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from symgen import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    # exit 0, nothing on stderr, and stdout byte for byte as committed
    # under tests/golden/<demo>.out (demo 04's products are seeded)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()


def test_readme_python_block_prints_its_comment():
    # the README's worked conversion states its output in a comment on the
    # print line; run the block and compare
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = block.rstrip().splitlines()[-1].split("# ", 1)[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # every command of the README's "Command line" block exits 0 quietly;
    # run in a scratch directory, since one of them writes graph.json
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    monkeypatch.chdir(tmp_path)
    assert commands and all(argv[0] == "symgen" for argv in commands)
    for argv in commands:
        code = cli.main(argv[1:])
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), argv
