#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write the
BENCH_<workload>.json that a change commits.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload verify-n2
           [--pairs 10] [--seconds 25] [--out BENCH_verify-n2.json]
           [--claim TEXT]

PARENT and CHANGE are the roots of two checkouts whose absolute paths
have equal length, as peak RSS moves with that length: otherwise it
prints one line and exits 2.  Each side runs its own
`perfbench/run.py --trace 0` from its root.  Pair p runs seed p, change
first when p is odd and parent first when it is even; a last pair runs
the held-out seed 9001, change first.  The end-to-end metrics, their
directions and bounds come from BENCHMARK.json next to this script, which
is only read.  The summary of each metric takes medians and quartiles
over pairs 1..k (the held-out pair is reported apart), counts the pairs
where the change is better, and states whether the medians lie further
apart than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 9001
SIDES = ("parent", "change")


def schedule(pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, sides in run order) for pairs 1..pairs, then the held-out
    pair."""
    order = [(p, ("change", "parent") if p % 2 else ("parent", "change"))
             for p in range(1, pairs + 1)]
    return order + [(HELD_OUT_SEED, ("change", "parent"))]


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        median = values[0]
        return {"median": median, "q1": median, "q3": median}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary block of a BENCH file: per metric (an end_to_end entry
    of BENCHMARK.json) the paired statistics, and per side the operations
    that all its runs attempted and failed."""
    value = {(r["side"], r["seed"]): r["result"] for r in runs}
    seeds = sorted({r["seed"] for r in runs} - {HELD_OUT_SEED})

    def read(side, seed, name):
        res = value.get((side, seed)) or {}
        return res.get("metrics", {}).get(name, {}).get("value")

    pairs = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        both = [(read("parent", s, name), read("change", s, name))
                for s in seeds]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            continue
        parent = _quartiles([p for p, _ in both])
        change = _quartiles([c for _, c in both])
        worse_by = sign * (change["median"] - parent["median"]) \
            / parent["median"]
        pairs[name] = {
            "parent": parent,
            "change": change,
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in both),
            "ties": sum(c == p for p, c in both),
            "pairs": len(both),
            "median_change_worse_by": worse_by,
            "bound": m["bound"],
            "within_bound": worse_by <= m["bound"],
            "medians_apart_by_more_than_parent_iqr":
                abs(change["median"] - parent["median"])
                > parent["q3"] - parent["q1"],
            "held_out_9001": {side: read(side, HELD_OUT_SEED, name)
                              for side in SIDES},
            "change_over_parent_median": change["median"] / parent["median"],
        }
    operations = {side: {key: sum(r["result"].get(key, 0) for r in runs
                                  if r["side"] == side)
                         for key in ("attempted", "failed")}
                  for side in SIDES}
    return {"pairs": pairs, "operations": operations}


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py run from a checkout's root: its JSON result
    line, or an incorrect result holding the error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def _git_label(root: str) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else \
        os.path.basename(os.path.abspath(root))


def _machine() -> str:
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        import numpy
        numpy_version = f", numpy {numpy.__version__}"
    except ImportError:
        numpy_version = ""
    return (f"{os.cpu_count()} vCPU, {round(mem / (1 << 30))} GB RAM, "
            f"Python {platform.python_version()}{numpy_version}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", help="default: BENCH_<workload>.json")
    ap.add_argument("--claim", default="none")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    lengths = {side: len(os.path.abspath(r)) for side, r in roots.items()}
    if lengths["parent"] != lengths["change"]:
        print(f"error: the checkouts' absolute paths differ in length "
              f"({lengths['parent']} and {lengths['change']} characters), "
              "which moves peak RSS; use paths of equal length",
              file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed, sides in schedule(args.pairs):
        for side in sides:
            print(f"{args.workload} seed {seed}: {side}", file=sys.stderr)
            runs.append({"side": side, "workload": args.workload,
                         "seed": seed, "trace": 0,
                         "result": run_side(roots[side], args.workload,
                                            seed, seconds)})

    out = {
        "benchmark": f"perfbench/run.py --workload W --seed S --seconds "
                     f"{seconds:g} --trace 0, run from the root of each "
                     "checkout",
        "machine": _machine(),
        "parent": _git_label(args.parent),
        "change": "this commit",
        "order": "pairs alternate which side runs first: odd pairs change "
                 "first, even pairs parent first (seeds 1-"
                 f"{args.pairs} are pairs 1-{args.pairs}), then the "
                 f"held-out seed {HELD_OUT_SEED} pair (change first); "
                 "both checkouts sat at paths of equal length "
                 f"({lengths['parent']} characters)",
        "claim": args.claim,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    path = args.out or f"BENCH_{args.workload}.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, s in out["summary"]["pairs"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} change "
              f"{s['change']['median']:.6g} (worse by "
              f"{100 * s['median_change_worse_by']:+.1f} %, better in "
              f"{s['change_better_pairs']} of {s['pairs']} pairs)")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
