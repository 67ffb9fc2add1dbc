"""Smoke tests: every script under scripts/ runs to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def script_process(script, args, python_flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *python_flags, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def run_script(script, args, python_flags=()):
    proc = script_process(script, args, python_flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script, args", [
    ("laser_trajectory_demo.py", ["--trajectories", "8", "--t1", "0.05"]),
    ("disentanglement_sweep.py", ["--radii", "0.5", "--t1", "0.02", "--store-every", "5"]),
])
def test_script_runs(script, args):
    run_script(script, args)


def test_laser_demo_defaults_do_not_warn():
    # the default dt keeps every step probability under the recommended bound
    run_script("laser_trajectory_demo.py", [], python_flags=["-W", "error::UserWarning"])


@pytest.mark.parametrize("args, why", [
    (["--t1", "1.0"], "store_every must be an integer >= 1 dividing the 500 steps"),
    (["--dt", "0.003"], "is not integral"),
    (["--t1", "0"], "at least one step"),
    (["--store-every", "0"], "store_every must be"),
])
def test_sweep_rejects_a_bad_grid_with_usage(args, why):
    # checked before any radius runs: the usage line and exit 2, no traceback
    proc = script_process("disentanglement_sweep.py", args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert why in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
