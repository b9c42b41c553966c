"""The README's "CLI", "Library quick start" and "A path on file" blocks
run as printed, and write the bytes pinned here."""

import csv
import io
import json
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

# the first 16 hex digits of the SHA-256 of what each command writes: its
# stdout and stderr, and with --output the file and its rate-fit sidecar
EMPTY = "e3b0c44298fc1c14"  # of no bytes
CLI_PINS = {
    "0-catalog": {"stdout": "59fba1a18904b617", "stderr": EMPTY},
    "1-simulate": {"stdout": "51427a74b9fd87de", "stderr": EMPTY},
    "2-convergence": {"stdout": EMPTY, "stderr": EMPTY,
                      "output": "741d402d0da4d174",
                      "sidecar": "1b3c6962f49cc943"},
    "3-convergence": {"stdout": "6eb6955b10e548d6", "stderr": EMPTY},
    "4-divergence": {"stdout": "b2ebb5ac3f052a54", "stderr": EMPTY},
    "5-moments": {"stdout": "9e0a391902556234", "stderr": EMPTY},
    "6-taming-check": {"stdout": "33a49f107f474c61", "stderr": EMPTY},
    "7-check-conditions": {"stdout": "dcac5f0a6a09c206", "stderr": EMPTY},
    "8-convergence": {"stdout": "d6889783d5a5395c", "stderr": EMPTY},
}


def _strict_json(text: str):
    """``text`` parsed as standard JSON, without the Infinity, -Infinity
    and NaN tokens that ``json.loads`` accepts by default."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", CLI_COMMANDS,
                         ids=[f"{i}-{c[1]}" for i, c in enumerate(CLI_COMMANDS)])
def test_cli_command_runs(tmp_path, monkeypatch, capsys, assert_pinned,
                         command):
    # every printed command exits 0, its assertions included, writes the
    # pinned bytes, and what it writes parses: JSON strictly, CSV as rows
    # of the header's width
    assert command[0] == "biteuler"
    monkeypatch.chdir(tmp_path)
    code = main(command[1:])
    out = capsys.readouterr()
    assert code == 0, out.err
    written = {"stdout": out.out, "stderr": out.err}
    if "--output" in command:
        name = tmp_path / command[command.index("--output") + 1]
        written.update(output=name.read_bytes(), sidecar=Path(
            f"{name}.ratefit.json").read_bytes())
    assert_pinned(CLI_PINS[f"{CLI_COMMANDS.index(command)}-{command[1]}"],
                  written)
    if command[1] == "catalog":  # text
        return
    text, fit = out.out, out.err
    if "--output" in command:
        text, fit = written["output"].decode(), written["sidecar"].decode()
    if "csv" in command:
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
        _strict_json(fit)  # convergence's rate fit
    else:
        _strict_json(text)


def test_library_quick_start_runs(assert_pinned):
    out = _run_python(_block("## Library quick start", "python"), ROOT)
    assert out.returncode == 0, out.stderr
    assert_pinned({"stdout": "ed6080c327620187"}, {"stdout": out.stdout})
    # one line per print: the run's last state, tau index and frozen flag,
    # then the fitted slope
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    last, tau, frozen = lines[0].rsplit(" ", 2)
    assert last.startswith("[") and tau.isdigit() and frozen in ("True", "False")
    float(lines[1])


def test_a_path_on_file_round_trips(tmp_path, monkeypatch, capsys,
                                    assert_pinned):
    # the dump written by the printed command loads as the drawn path, and
    # run_path steps it on a coarser grid
    command = shlex.split(_block("## A path on file", "sh").replace("\\\n", ""))
    assert command[0] == "biteuler"
    monkeypatch.chdir(tmp_path)
    assert main(command[1:]) == 0
    dumped = capsys.readouterr().out
    out = _run_python(_block("## A path on file", "python"), tmp_path)
    assert out.returncode == 0, out.stderr
    assert_pinned({"dump stdout": "8c0c18f9eb9300e0",
                   "dump": "4ecae3240881b5f1",
                   "python stdout": "691c15163800dc74"},
                  {"dump stdout": dumped,
                   "dump": (tmp_path / "path0.bin").read_bytes(),
                   "python stdout": out.stdout})
    last, tau = out.stdout.rsplit(" ", 1)
    assert last.startswith("[") and tau.strip().isdigit()
