"""The README's toy pipeline runs as written, so its commands cannot drift
from the CLI."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ccm import cli

ROOT = Path(__file__).resolve().parent.parent
PREFIX = ["python", "-m", "ccm.cli"]


def readme_commands() -> list[list[str]]:
    """The argv of each ``python -m ccm.cli`` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [shlex.split(line) for block in blocks for line in block.splitlines()]
    return [argv for argv in lines if argv[:3] == PREFIX]


def test_readme_pipeline_runs_every_command(tmp_path):
    commands = readme_commands()
    assert {argv[3] for argv in commands} == set(cli.COMMANDS)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    for argv in commands:
        done = subprocess.run([sys.executable, *argv[1:]], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv, done.stderr)
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()
