"""Smoke test: the demos run to completion against the package in ``src``,
with warnings turned into errors (``python -W error``).

Demos 01-03 take about a second or two each.  Demo 04 is left out: it takes
about 3 s, the acceptance sweeps already run the plans it prints, and the CI
workflow runs it with a reference cache.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_fractional_operators.py",
                                  "02_solve_and_decoupling.py",
                                  "03_manufactured_convergence.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
