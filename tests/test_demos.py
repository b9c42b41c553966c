"""The fast demos run to completion against the installed library.

demo_convergence_rate.py and demo_moments_and_stopping.py take about 6 s
each, so they are left out; the three below take about 3 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["tune_lyapunov_constants.py",
                                  "demo_taming_map.py", "demo_divergence.py"])
def test_fast_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
