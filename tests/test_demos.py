"""The fast demos run to completion against the installed library and
print the pinned bytes.

demo_convergence_rate.py and demo_moments_and_stopping.py take about 3 and
7 s, so they are left out; the three below take about 1.5 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# the first 16 hex digits of the SHA-256 of each demo's stdout
STDOUT_PINS = {"tune_lyapunov_constants.py": "18a0c02b65fd32d3",
               "demo_taming_map.py": "7f2913ef0bbe415d",
               "demo_divergence.py": "de3f0dfa11bcb5fc"}


@pytest.mark.parametrize("demo", STDOUT_PINS)
def test_fast_demo_exits_0(demo, assert_pinned):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert_pinned({"stdout": STDOUT_PINS[demo]}, {"stdout": out.stdout})
