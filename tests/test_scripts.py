"""Smoke tests of the example scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_heat_flow_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "heat_flow_demo.py"),
         "--cutoff", "4"],
        env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "max gap" in res.stdout
