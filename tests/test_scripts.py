"""Smoke runs of the experiment scripts at their n=2 defaults (and of the
ball scan at n=4), each in a fresh interpreter, checking the exit code
and the lines they print."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


EXPECTED = {
    "distance_diagrams.py": [
        "=== distance diagram at X (512 vertices) ===",
        "layers: [1, 4, 12, 36, 54, 108, 108, 108, 81]",
        "=== distance diagram at Y (512 vertices) ===",
        "layers: [1, 4, 12, 36, 81, 108, 135, 108, 27]",
        "  d=3: 36(1->9,2->72)",
        "  d=4: 9(-)  72(3->108)",
    ],
    "ball_scan.py": [
        "n=2: |S'| = 9 distinct commutators [x,y]",
        "radius 2: 1 derived elements",
        "radius 4: 10 derived elements  <- {1} u S'",
    ],
    "aut_order.py": [
        "group-action subgroup order : 36864 = 2^12 * 3^2",
        "full automorphism group     : 7962624 (= 2^15 * 3^5)",
        "index of the subgroup       : 216",
    ],
}

# lines whose values vary from run to run, matched whole
PATTERNS = {
    "aut_order.py": [r"search time {17}: \d+\.\d{3}s"],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_script_runs(name):
    lines = run_script(name)
    for line in EXPECTED[name]:
        assert line in lines
    for pattern in PATTERNS.get(name, []):
        assert any(re.fullmatch(pattern, line) for line in lines)


def test_ball_scan_at_rank_four():
    lines = run_script("ball_scan.py", "--n", "4", "--max-radius", "4")
    assert "n=4: |S'| = 225 distinct commutators [x,y]" in lines
    assert "radius 4: 226 derived elements  <- {1} u S'" in lines
