"""Smoke tests: the example applications run end to end.

Each example is executed as a subprocess with a reduced problem size
(where it takes an argument) and must exit cleanly with its headline
output present.
"""

import os
import subprocess
import sys

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(script, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "Most central vertex: 4" in out
    assert "identical scores" in out


def test_road_network():
    out = _run("road_network_analysis.py", "4000")
    assert "critical intersections" in out
    assert "Work-efficient speedup over edge-parallel" in out


def test_social_network():
    out = _run("social_network_influence.py", "4000")
    assert "top-20 by betweenness" in out
    assert "classified" in out


def test_power_grid():
    out = _run("power_grid_contingency.py", "1500")
    assert "critical buses" in out
    assert "connectivity" in out
