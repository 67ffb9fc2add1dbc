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
    # checked before any radius runs
    assert_usage_error("disentanglement_sweep.py", args, why)


@pytest.mark.parametrize("script, args, why", [
    ("disentanglement_sweep.py", ["--amplitudes", "0"], "--amplitudes must be >= 1, got 0"),
    ("laser_trajectory_demo.py", ["--trajectories", "0"], "seeds must name at least one seed"),
    ("laser_trajectory_demo.py", ["--t1", "0.0501"], "is not integral"),
])
def test_bad_argument_exits_with_usage(script, args, why):
    assert_usage_error(script, args, why)


def assert_usage_error(script, args, why):
    """The usage line, the reason and exit 2, with no traceback and no output."""
    proc = script_process(script, args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert why in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_code_lines_counts_a_fixture_package(tmp_path):
    # four code lines: the import, the def, and the two lines of the return;
    # the docstrings, comments and blank lines count for nothing
    (tmp_path / "mod.py").write_text(
        '"""Module docstring."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """A docstring\n'
        '    over two lines."""\n'
        "    return (x +\n"
        "            len(os.sep))\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "empty.py").write_text('"""Only a docstring."""\n')
    proc = script_process("code_lines.py", [str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     4  mod.py", "     0  sub/empty.py", "     4  total"]
