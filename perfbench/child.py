"""One benchmark iteration, run in a fresh interpreter by run.py.

    python3 perfbench/child.py --setup NAME
        import the package and build the workload's context(n) with its
        packed tables
    python3 perfbench/child.py --workload NAME --seed S --result PATH
                               --edges PATH [--trace PATH]
        run one iteration of a workload and write its outputs as JSON;
        sigma-n3 writes its edge list to the --edges path

`wall_s` in the result is the time of the workload after the imports (and
after the tracer is installed, when tracing).  Output gates are applied by
run.py, which keeps its own reference values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_verify(n: int, seed: int, edges: str) -> dict:
    """`mixdih verify --n N --suite all --json --seed S`, in-process."""
    import mixdih.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--n", str(n), "--suite", "all", "--json",
                         "--seed", str(seed)])
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        report = None
    return {"exit_code": code, "report": report}


def run_sigma(n: int, seed: int, edges: str) -> dict:
    """Build sigma(n), take its distance profile from a seeded root, and
    export it as the `mixdih graph --kind sigma` edge list."""
    import numpy as np
    from mixdih import graphs, group, symmetry

    ctx = group.context(n)
    sig = graphs.build_sigma(ctx)
    rng = random.Random(f"{seed}:root")
    side = rng.choice("XY")
    root = rng.randrange(sig.half) + (sig.half if side == "Y" else 0)
    diagram = symmetry.distance_layers(sig.graph, root, side)
    with open(edges, "w") as fh:
        graphs.export_graph(sig.graph, fh, "edgelist", n=n, kind="sigma")
    return {"exit_code": 0, "side": side, "root": root,
            "layers": diagram.layers, "unreachable": diagram.unreachable,
            "vertices": sig.graph.num_vertices,
            "edges": sig.graph.num_edges,
            "valency": np.unique(sig.graph.degrees()).tolist()}


WORKLOADS = {
    "verify-n2": (run_verify, 2),
    "sigma-n3": (run_sigma, 3),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup", choices=sorted(WORKLOADS))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--result")
    ap.add_argument("--trace")
    ap.add_argument("--edges")
    args = ap.parse_args(argv)

    import mixdih.cli  # noqa: F401  the whole package, as the console script
    from mixdih.bulk import packed_ops
    from mixdih.group import context

    if args.setup is not None:
        packed_ops(context(WORKLOADS[args.setup][1]))
        return 0

    recorder = calibration = None
    if args.trace:
        import tracer
        calibration = tracer.calibrate()
        recorder = tracer.Recorder()
        tracer.install(recorder)

    fn, n = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    out = fn(n, args.seed, args.edges)
    wall = time.perf_counter() - t0

    if recorder is not None:
        recorder.dump(args.trace, wall_s=wall, calibration=calibration)
    with open(args.result, "w") as fh:
        json.dump({"wall_s": wall, **out}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
