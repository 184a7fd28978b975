"""mixdih benchmark: end-to-end timings, output gates and a traced run.

    python3 perfbench/run.py --workload verify-n2 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.

Workloads (single-process closed loops: the next iteration starts when the
previous interpreter has exited; each iteration is a fresh interpreter):

* verify-n2  `mixdih verify --n 2 --suite all --json --seed S`: the
  scalar group batteries and the automorphism search; graphs are tiny.
* sigma-n3   build the rank-3 coset graph (2^22 vertices, 2^24 edges),
  BFS from one seeded vertex, and write the edge list that
  `mixdih graph --n 3 --kind sigma` writes; scalar arithmetic is tiny.

Iterations repeat while another one fits into --seconds (at least one).
With --trace 0 the result holds the end-to-end metrics (medians over the
iterations; setup_s is the median of SETUP_PROBES fresh interpreters).
With --trace 1 every iteration runs under perfbench/tracer.py and the
result holds the per-layer metrics (medians over the iterations).

Every iteration's outputs are checked against the reference values below,
which are kept here rather than taken from the package.  `attempted` counts
report checks plus gates; `failed` counts checks whose status is fail or
inconclusive (a crashed check reports fail), failed gates, and iterations
that exited non-zero.  The last stdout line is the JSON result.

--seed reaches the program as `verify --seed` (verify-n2) and as the BFS
root (sigma-n3).  Seeds 1-15 were used while this benchmark was defined;
seed 9001 is held out: leave it unused while developing a change, and run
it to confirm a claimed gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0
MB = 1 << 20

# -- reference values ------------------------------------------------------------

# Paper values at rank 2.
LAYERS_X_N2 = [1, 4, 12, 36, 54, 108, 108, 108, 81]
LAYERS_Y_N2 = [1, 4, 12, 36, 81, 108, 135, 108, 27]
AUT_ORDER_N2 = 2**15 * 3**5
SIGMA_N2 = {"vertices": 2**9, "edges": 2**10, "valency": 4}
# sigma(3): 2^22 vertices, 2^24 edges, valency 8.  The layer profiles and the
# export digest were recorded from the engine when this benchmark was added;
# every vertex of a side gives its side's profile, since the group acts
# transitively on each side by automorphisms.
SIGMA_N3 = {"vertices": 2**22, "edges": 2**24, "valency": [8]}
LAYERS_N3 = {
    "X": [1, 8, 56, 392, 1372, 8232, 19208, 96040, 167825, 646800, 858480,
          1305360, 1045170, 40320, 5040],
    "Y": [1, 8, 56, 392, 2401, 8232, 42189, 96040, 392245, 646800, 1350930,
          1305360, 304290, 40320, 5040],
}
EXPORT_N3_HEADER = b"# hn-graph n=3 kind=sigma vertices=4194304 edges=16777216\n"
EXPORT_N3_LINES = 1 + 2**24
EXPORT_N3_SHA256 = \
    "3aa317d683e5b3d3bc718a1cbb9d3d4b06e8cbc3f09a167a5eb084ad9c3883f7"

CHECKS_TIMED = (
    "coset-graph-stats", "distance-layer-profiles", "semisymmetry-certificate",
    "right-action-automorphism", "right-action-homomorphism",
    "derived-quotient-cover", "export-roundtrip", "aut-group-order",
    "gl-action-automorphism", "associativity", "strategy-independence",
    "witt-hall-identity", "jacobi-identity", "canonical-coset-invariance")


# -- output gates ----------------------------------------------------------------

def verify_gates(res: dict, edges: str) -> tuple[list[tuple[str, bool]], int]:
    """(operation, ok) for every report check plus the reference gates."""
    report = res["report"] or {"checks": [], "overall": None}
    checks = {c["name"]: c for c in report["checks"]}

    def actual(name, key):
        value = checks.get(name, {}).get("actual")
        return value.get(key) if isinstance(value, dict) else value

    ops = [(f"check {c['name']} is {c['status']}",
            c["status"] not in ("fail", "inconclusive"))
           for c in report["checks"]]
    ops += [
        ("exit code 0 and overall pass",
         res["exit_code"] == 0 and report["overall"] == "pass"),
        ("layer profile from X",
         actual("distance-layer-profiles", "layers_X") == LAYERS_X_N2),
        ("layer profile from Y",
         actual("distance-layer-profiles", "layers_Y") == LAYERS_Y_N2),
        ("|Aut| = 2^15 3^5", actual("aut-group-order", None) == AUT_ORDER_N2),
        ("sigma(2) size", all(actual("coset-graph-stats", k) == v
                              for k, v in SIGMA_N2.items())),
    ]
    passed = sum(c["status"] == "pass" for c in report["checks"])
    return ops, passed


def scan_export(path: str) -> tuple[bytes, int, str]:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        lines = 1
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return header, lines, digest.hexdigest()


def sigma_gates(res: dict, edges: str) -> tuple[list[tuple[str, bool]], int]:
    header, lines, sha = scan_export(edges)
    ops = [
        ("sigma(3) size", all(res[k] == v for k, v in SIGMA_N3.items())),
        (f"layer profile from {res['side']} vertex {res['root']}",
         res["unreachable"] == 0 and res["layers"] == LAYERS_N3[res["side"]]),
        ("export header", header == EXPORT_N3_HEADER),
        ("export line count", lines == EXPORT_N3_LINES),
        ("export sha256", sha == EXPORT_N3_SHA256),
    ]
    return ops, sum(ok for _, ok in ops)


GATES = {"verify-n2": verify_gates, "sigma-n3": sigma_gates}


# -- per-layer metrics from one traced iteration -----------------------------------

def layer_metrics(trace: dict) -> dict[str, float]:
    spans, agg = trace["spans"], trace["aggregates"]
    layer = [s[0].split(".")[0] for s in spans]
    total, calls, extras = {}, {}, {}
    for s in spans:
        total[s[0]] = total.get(s[0], 0.0) + (s[3] - s[2])
        calls[s[0]] = calls.get(s[0], 0) + 1
        extras.setdefault(s[0], []).append(s[5])

    def secs(name):
        return total.get(name, 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def self_s(pred):
        """Seconds inside matching spans not spent in another layer,
        counting each same-layer nest once."""
        out = 0.0
        for i, s in enumerate(spans):
            p = s[1]
            if pred(s[0]) and not (p >= 0 and layer[p] == layer[i]
                                   and pred(spans[p][0])):
                out += (s[3] - s[2]) - s[4]
        return out

    m = {}
    for fn in ("mul", "comm"):
        n, t = agg.get(f"group.{fn}", (0, 0.0))
        m[f"group.{fn}.calls"] = n
        m[f"group.{fn}.ops_per_s"] = rate(n, t)
    m["group.evaluate_word.ops_per_s"] = rate(*agg.get("group.evaluate_word",
                                                       (0, 0.0)))
    for fn in ("mul", "y_coset_key"):
        name = f"bulk.{fn}"
        m[f"{name}.elems_per_s"] = rate(sum(extras.get(name, [])), secs(name))

    m["graphs.build_sigma.s"] = secs("graphs.build_sigma")
    m["graphs.build_sigma.calls"] = calls.get("graphs.build_sigma", 0)
    m["graphs.build_sigma.rss_growth_mb"] = sum(
        extras.get("graphs.build_sigma", []))
    roots = {tuple(r) for r in extras.get("graphs.bfs_layers", [])}
    m["graphs.bfs_layers.s"] = secs("graphs.bfs_layers")
    m["graphs.bfs_layers.calls"] = calls.get("graphs.bfs_layers", 0)
    m["graphs.bfs_layers.calls_per_root"] = rate(
        calls.get("graphs.bfs_layers", 0), len(roots))
    written = sum(c or 0 for c in extras.get("graphs.export_graph", []))
    m["graphs.export_graph.s"] = secs("graphs.export_graph")
    m["graphs.export_graph.mb_per_s"] = rate(written / MB,
                                             secs("graphs.export_graph"))
    m["graphs.quotient_by_derived.s"] = secs("graphs.quotient_by_derived")
    m["graphs.quotient_by_derived.calls"] = calls.get(
        "graphs.quotient_by_derived", 0)
    for fn in ("build_gamma", "maximal_cliques", "line_graph"):
        m[f"graphs.{fn}.s"] = secs(f"graphs.{fn}")

    for fn in ("is_graph_automorphism", "right_action", "gl_action"):
        m[f"symmetry.{fn}.s"] = secs(f"symmetry.{fn}")
        m[f"symmetry.{fn}.calls"] = calls.get(f"symmetry.{fn}", 0)
    for fn in ("check_local_2at", "refined_diagram", "equitable_refinement",
               "orbits", "edge_regular_witness", "ball_intersect_derived"):
        m[f"symmetry.{fn}.s"] = secs(f"symmetry.{fn}")
    m["symmetry.semisymmetry_certificate.self_s"] = self_s(
        lambda name: name == "symmetry.semisymmetry_certificate")
    m["autgroup.automorphism_group_order.s"] = secs(
        "autgroup.automorphism_group_order")

    by_part = dict.fromkeys(("core", "graphs", "symmetry", "stretch"), 0.0)
    for name, part in trace["categories"].items():
        by_part[part] += secs(name)
    for part, t in by_part.items():
        m[f"verify.{part}.s"] = t
    for check in CHECKS_TIMED:
        m[f"verify.check.{check}.ms"] = 1000.0 * secs(f"verify.check.{check}")
    # Layer busy time outside the layers it calls; group calls no other layer.
    m["group.self_s"] = sum(t for _, t in agg.values())
    for part in ("bulk", "graphs", "symmetry", "autgroup", "verify", "cli"):
        m[f"{part}.self_s"] = self_s(lambda name: name.startswith(part + "."))

    cost = trace["calibration"]
    overhead = (sum(n for n, _ in agg.values()) * cost["aggregate"]
                + len(spans) * cost["span"] + trace["fast_calls"] * cost["fast"])
    m["trace_overhead_pct"] = 100.0 * overhead / max(trace["wall_s"] - overhead,
                                                     1e-9)
    return m


# -- running the children -----------------------------------------------------------

def spawn(root: str, argv: list[str]) -> tuple[int, float, float]:
    """Run child.py to completion: (exit code, peak RSS in MB, seconds).

    The peak RSS is this child's own, from wait4; RUSAGE_CHILDREN would
    report the maximum over every earlier child as well.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *argv], cwd=root,
                            stdout=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, time.perf_counter() - t0


def run(args, root: str, work: str) -> dict:
    attempted = failed = 0
    failures: list[str] = []

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, _, seconds = spawn(root, ["--setup", args.workload])
            attempted += 1
            if code != 0:
                failed += 1
                failures.append(f"set-up probe exited {code}")
            setup.append(seconds)

    walls, peaks, passed, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(walls)
        result = os.path.join(work, f"result-{i}.json")
        trace = os.path.join(work, f"trace-{i}.json")
        edges = os.path.join(work, f"sigma-{i}.edges")
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--result", result, "--edges", edges]
        if args.trace:
            argv += ["--trace", trace]
        code, peak, seconds = spawn(root, argv)
        if code == 0:
            with open(result) as fh:
                res = json.load(fh)
            ops, ok = GATES[args.workload](res, edges)
            bad = [name for name, good in ops if not good]
            attempted += len(ops)
            failed += len(bad)
            failures += bad
            walls.append(res["wall_s"])
            passed.append(ok)
            if args.trace:
                with open(trace) as fh:
                    layers.append(layer_metrics(json.load(fh)))
        else:
            attempted += 1
            failed += 1
            failures.append(f"iteration {i} exited {code}")
            walls.append(seconds)
            passed.append(0)
        peaks.append(peak)
        for path in (result, trace, edges):
            if os.path.exists(path):
                os.remove(path)
        elapsed = time.perf_counter() - start
        if failed or elapsed + elapsed / len(walls) > args.seconds:
            break

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layers),
                          "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()} if layers else {}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
            "checks_passed": {"value": statistics.median(passed),
                              "unit": "count"},
        }
    return {"iterations": len(walls), "attempted": attempted,
            "failed": failed, "failures": failures, "metrics": metrics}


PER_LAYER_UNITS = {
    "group.mul.calls": "count",
    "group.mul.ops_per_s": "1/s",
    "group.comm.calls": "count",
    "group.comm.ops_per_s": "1/s",
    "group.evaluate_word.ops_per_s": "1/s",
    "group.self_s": "s",
    "bulk.mul.elems_per_s": "1/s",
    "bulk.y_coset_key.elems_per_s": "1/s",
    "bulk.self_s": "s",
    "graphs.build_sigma.s": "s",
    "graphs.build_sigma.calls": "count",
    "graphs.build_sigma.rss_growth_mb": "MB",
    "graphs.bfs_layers.s": "s",
    "graphs.bfs_layers.calls": "count",
    "graphs.bfs_layers.calls_per_root": "ratio",
    "graphs.export_graph.s": "s",
    "graphs.export_graph.mb_per_s": "MB/s",
    "graphs.quotient_by_derived.s": "s",
    "graphs.quotient_by_derived.calls": "count",
    "graphs.build_gamma.s": "s",
    "graphs.maximal_cliques.s": "s",
    "graphs.line_graph.s": "s",
    "graphs.self_s": "s",
    "symmetry.is_graph_automorphism.s": "s",
    "symmetry.is_graph_automorphism.calls": "count",
    "symmetry.right_action.s": "s",
    "symmetry.right_action.calls": "count",
    "symmetry.gl_action.s": "s",
    "symmetry.gl_action.calls": "count",
    "symmetry.check_local_2at.s": "s",
    "symmetry.refined_diagram.s": "s",
    "symmetry.equitable_refinement.s": "s",
    "symmetry.orbits.s": "s",
    "symmetry.edge_regular_witness.s": "s",
    "symmetry.semisymmetry_certificate.self_s": "s",
    "symmetry.ball_intersect_derived.s": "s",
    "symmetry.self_s": "s",
    "autgroup.automorphism_group_order.s": "s",
    "autgroup.self_s": "s",
    "verify.core.s": "s",
    "verify.graphs.s": "s",
    "verify.symmetry.s": "s",
    "verify.stretch.s": "s",
    "verify.self_s": "s",
    **{f"verify.check.{c}.ms": "ms" for c in CHECKS_TIMED},
    "cli.self_s": "s",
    "trace_overhead_pct": "%",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixdih", "__init__.py")):
        print("error: run from a mixdih checkout (src/mixdih not found)",
              file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        out = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={out['iterations']}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  checks_failed = {out['failed']} count "
          f"(of {out['attempted']} attempted)")
    for name in out["failures"]:
        print(f"  FAILED: {name}")
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
