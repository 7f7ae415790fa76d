"""Each demo script runs to completion: the demos call the public surface
(HmboConfig.hmcf, run_flow, solver_vs_quadrature, ...) as a user would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    # a subprocess escapes pytest's filterwarnings, so the flag makes a
    # RuntimeWarning (overflow, invalid value) fail the demo here too
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
