"""Smoke runs of the experiment scripts at their n=2 defaults (and of the
ball scan at n=4), each in a fresh interpreter, checking the exit code
and the lines they print; and the summary that scripts/bench_pairs.py
writes, on synthetic runs."""

import importlib.util
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


# -- scripts/bench_pairs.py -----------------------------------------------------

def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_run(side, seed, wall, checks, attempted=10, failed=0):
    return {"side": side, "workload": "w", "seed": seed, "trace": 0,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "checks_passed": {"value": checks,
                                                     "unit": "count"}}}}


METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "checks_passed", "better": "higher", "bound": 0.02}]


def test_bench_pairs_alternates_sides_and_holds_out_a_seed():
    bp = load_bench_pairs()
    assert bp.schedule(3) == [
        (1, ("change", "parent")), (2, ("parent", "change")),
        (3, ("change", "parent")), (9001, ("change", "parent"))]


def test_bench_pairs_summary_of_synthetic_runs():
    """Five pairs with parent walls 1..5 s and change walls 0.5 s lower
    except a tie in pair 5; the held-out pair stays out of the medians
    and the wins, and counts in the operations."""
    bp = load_bench_pairs()
    runs = []
    for seed, change in zip(range(1, 6), [0.5, 1.5, 2.5, 3.5, 5.0]):
        runs += [synthetic_run("parent", seed, float(seed), 46),
                 synthetic_run("change", seed, change, 46)]
    runs += [synthetic_run("change", 9001, 9.0, 45, failed=1),
             synthetic_run("parent", 9001, 0.1, 46)]
    summary = bp.summarize(runs, METRICS)
    wall = summary["pairs"]["wall_s"]
    # exclusive quartiles of 1..5 are 1.5 and 4.5
    assert wall["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5}
    assert wall["change"] == {"median": 2.5, "q1": 1.0, "q3": 4.25}
    assert (wall["change_better_pairs"], wall["ties"], wall["pairs"]) == \
        (4, 1, 5)
    assert wall["median_change_worse_by"] == pytest.approx(-1 / 6)
    assert wall["within_bound"]
    # 0.5 s apart against a parent interquartile range of 3 s
    assert not wall["medians_apart_by_more_than_parent_iqr"]
    assert wall["held_out_9001"] == {"parent": 0.1, "change": 9.0}
    assert wall["change_over_parent_median"] == pytest.approx(5 / 6)
    checks = summary["pairs"]["checks_passed"]
    assert (checks["change_better_pairs"], checks["ties"]) == (0, 5)
    assert checks["median_change_worse_by"] == 0 and checks["within_bound"]
    assert summary["operations"] == {
        "parent": {"attempted": 60, "failed": 0},
        "change": {"attempted": 60, "failed": 1}}


def test_bench_pairs_summary_flags_a_worse_change():
    """A higher-is-better metric that drops, and a lower-is-better one
    that rises past its bound with every pair worse."""
    bp = load_bench_pairs()
    runs = []
    for seed in (1, 2, 3):
        runs += [synthetic_run("parent", seed, 1.0 + seed / 100, 46),
                 synthetic_run("change", seed, 2.0 + seed / 100, 40)]
    pairs = bp.summarize(runs, METRICS)["pairs"]
    assert pairs["wall_s"]["change_better_pairs"] == 0
    assert pairs["wall_s"]["median_change_worse_by"] == pytest.approx(
        1 / 1.02)
    assert not pairs["wall_s"]["within_bound"]
    assert pairs["wall_s"]["medians_apart_by_more_than_parent_iqr"]
    assert pairs["wall_s"]["held_out_9001"] == {"parent": None,
                                               "change": None}
    checks = pairs["checks_passed"]
    assert checks["median_change_worse_by"] == pytest.approx(6 / 46)
    assert not checks["within_bound"]
    # one pair: the quartiles are the value itself
    one = bp.summarize(runs[:2], METRICS)["pairs"]["wall_s"]
    assert one["parent"] == {"median": 1.01, "q1": 1.01, "q3": 1.01}


def test_bench_pairs_refuses_paths_of_different_lengths(tmp_path, capsys,
                                                       monkeypatch):
    # peak RSS moves with the checkout's path length: no run starts and no
    # file is written
    bp = load_bench_pairs()
    monkeypatch.setattr(bp, "run_side", lambda *a: pytest.fail("ran"))
    monkeypatch.chdir(tmp_path)
    short, longer = tmp_path / "p", tmp_path / "ch"
    assert bp.main([str(short), str(longer), "--workload", "w"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "differ in length" in err
    assert list(tmp_path.iterdir()) == []
