"""Smoke test: the narrative demo scripts run to completion. Demo 04 (a
Monte Carlo run of several seconds) is left out; test_simulate covers its
path."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_riccati_and_closed_forms", "02_explosion_and_domains", "03_transform_semantics",
         "05_cones_and_order", "06_damping_and_scaling"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
