"""The README's "Library quick start" block runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # one line per print: the run's last state, tau index and frozen flag,
    # then the fitted slope
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    last, tau, frozen = lines[0].rsplit(" ", 2)
    assert last.startswith("[") and tau.isdigit() and frozen in ("True", "False")
    float(lines[1])
