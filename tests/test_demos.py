"""Smoke tests of the two fast demos, run as scripts with warnings as errors.

The other three demos take a few seconds each and are left to manual runs.
"""

import os
import subprocess
import sys

import pytest

from conftest import child_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def run_demo(name):
    return subprocess.run(
        [sys.executable, "-W", "error", os.path.join(DEMOS, name)],
        capture_output=True, text=True, env=child_env(),
    )


@pytest.mark.parametrize("name", ["heat_rod.py", "sampled_data.py"])
def test_demo_runs_cleanly(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


def test_sampled_data_demo_is_deterministic():
    first, second = run_demo("sampled_data.py"), run_demo("sampled_data.py")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
