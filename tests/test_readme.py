"""The README's "CLI", "Library quick start" and "A path on file" blocks
run as printed."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from biteuler.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _block(section: str, lang: str) -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(f"```{lang}\n(.*?)```", readme.split(section, 1)[1],
                     re.S).group(1)


def _run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


def _cli_commands() -> list[list[str]]:
    """Each command of the "CLI" block, its continuation lines joined."""
    block = _block("## CLI", "sh").replace("\\\n", "")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


CLI_COMMANDS = _cli_commands()


@pytest.mark.parametrize("command", CLI_COMMANDS,
                         ids=[f"{i}-{c[1]}" for i, c in enumerate(CLI_COMMANDS)])
def test_cli_command_runs(tmp_path, monkeypatch, capsys, command):
    # every printed command exits 0, its assertions included
    assert command[0] == "biteuler"
    monkeypatch.chdir(tmp_path)
    assert main(command[1:]) == 0, capsys.readouterr().err


def test_library_quick_start_runs():
    out = _run_python(_block("## Library quick start", "python"), ROOT)
    assert out.returncode == 0, out.stderr
    # one line per print: the run's last state, tau index and frozen flag,
    # then the fitted slope
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    last, tau, frozen = lines[0].rsplit(" ", 2)
    assert last.startswith("[") and tau.isdigit() and frozen in ("True", "False")
    float(lines[1])


def test_a_path_on_file_round_trips(tmp_path, monkeypatch):
    # the dump written by the printed command loads as the drawn path, and
    # run_path steps it on a coarser grid
    command = shlex.split(_block("## A path on file", "sh").replace("\\\n", ""))
    assert command[0] == "biteuler"
    monkeypatch.chdir(tmp_path)
    assert main(command[1:]) == 0
    out = _run_python(_block("## A path on file", "python"), tmp_path)
    assert out.returncode == 0, out.stderr
    last, tau = out.stdout.rsplit(" ", 1)
    assert last.startswith("[") and tau.strip().isdigit()
