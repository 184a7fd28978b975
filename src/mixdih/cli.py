"""Command-line interface: info, graph, verify, diagram, element, hall, aut.

All output is deterministic for a fixed seed (timings are zeroed and peak
RSS left out unless --timing is passed), so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphs as gr
from . import hall
from . import symmetry as sym
from .autgroup import automorphism_group_order, check_aut_cap
from .group import (
    CapExceededError,
    EncodingError,
    IDENTITY,
    comm,
    context,
    format_element,
    inv,
    mul,
    parse_element,
)
from .verify import SUITES, run_suite


def _add_n(p):
    p.add_argument("--n", type=int, required=True, help="rank (>= 2)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixdih",
        description="Exact computations in a family of mixed dihedral "
                    "2-groups and their coset graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="orders, valencies and dimension table")
    _add_n(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("graph", help="build and export a graph")
    _add_n(p)
    p.add_argument("--kind", required=True,
                   choices=["gamma", "sigma", "quotient", "linegraph"])
    p.add_argument("--format", default="edgelist",
                   choices=["edgelist", "dot"])
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--labels", action="store_true",
                   help="also write a vertex-label table next to --out")
    p.add_argument("--force", action="store_true",
                   help="build past the vertex cap")

    p = sub.add_parser("verify", help="run a verification suite")
    _add_n(p)
    p.add_argument("--suite", default="all", choices=list(SUITES))
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtimes and the peak RSS after "
                        "each check (breaks byte-for-byte reproducibility)")

    p = sub.add_parser("diagram", help="distance diagram of the coset graph")
    _add_n(p)
    p.add_argument("--root", required=True, choices=["X", "Y"])
    p.add_argument("--refine", action="store_true",
                   help="refine the distance partition equitably")
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("element", help="arithmetic on encoded elements")
    _add_n(p)
    p.add_argument("op", choices=["mul", "inv", "comm"])
    p.add_argument("operands", nargs="+",
                   help="elements as a:<hex>;b:<hex>;w:<hex>;t:<hex>")

    p = sub.add_parser("hall", help="basic commutators of weight <= 3")
    p.add_argument("--r", type=int, required=True, help="alphabet size")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("aut", help="full automorphism group order (stretch)")
    _add_n(p)
    return ap


def cmd_info(args) -> int:
    ctx = context(args.n)
    dt = hall.dimension_table(args.n)
    n = args.n
    info = {
        "n": n,
        "group_order": str(1 << ctx.total_bits),
        "group_order_exp": ctx.total_bits,
        "derived_order_exp": dt.u,
        "sigma_vertices_exp": dt.u + n + 1,
        "sigma_edges_exp": ctx.total_bits,
        "sigma_valency": 1 << n,
        "gamma_valency": 2 * ((1 << n) - 1),
        "dimension_table": {"r": dt.r, "m_fk": dt.m_fk, "u": dt.u,
                            "v": dt.v, "order_exp": dt.order_exp},
    }
    if args.json:
        print(json.dumps(info, sort_keys=True, indent=2))
        return 0
    print(f"rank n = {n}")
    print(f"group order        = 2^{ctx.total_bits} = {1 << ctx.total_bits}")
    print(f"derived subgroup   = 2^{info['derived_order_exp']}")
    print(f"coset graph        : 2^{info['sigma_vertices_exp']} vertices, "
          f"2^{ctx.total_bits} edges, valency {1 << n}")
    print(f"cayley graph       : 2^{ctx.total_bits} vertices, "
          f"valency {2 * ((1 << n) - 1)}")
    print(f"dimension table    : r={dt.r} m_fk={dt.m_fk} u={dt.u} v={dt.v} "
          f"order_exp={dt.order_exp}")
    return 0


def _build_kind(ctx, kind: str, force: bool):
    """The graph of a kind and its vertex naming (id -> label), None for
    the unnamed quotient and line graph."""
    if kind == "gamma":
        return (gr.build_gamma(ctx, force=force),
                lambda v: format_element(ctx, ctx.unpack(v)))
    if kind == "quotient":
        return gr.quotient_by_derived(ctx), None
    if kind == "linegraph":  # one vertex per edge of sigma: it is gamma
        gr._check_cap(1 << ctx.total_bits, 2 * ((1 << ctx.n) - 1), force,
                      "line graph")
    sig = gr.build_sigma(ctx, force=force)
    if kind == "sigma":
        return sig.graph, lambda v: format_element(ctx, gr.vertex_rep(ctx, v))
    if kind == "linegraph":
        return gr.line_graph(sig.graph), None
    raise ValueError(kind)


def cmd_graph(args) -> int:
    ctx = context(args.n)
    g, name = _build_kind(ctx, args.kind, args.force)
    if args.out == "-":
        gr.export_graph(g, sys.stdout, args.format, n=args.n, kind=args.kind)
        if args.labels:
            gr.export_labels(g, sys.stdout, name)
    else:
        with open(args.out, "w") as fh:
            gr.export_graph(g, fh, args.format, n=args.n, kind=args.kind)
        if args.labels:
            with open(args.out + ".labels", "w") as fh:
                gr.export_labels(g, fh, name)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.n, args.suite, samples=args.samples,
                       seed=args.seed, timing=args.timing)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        for c in report.checks:
            line = f"{c.name}: {c.status}"
            if c.status in ("fail", "inconclusive"):
                line += f"  (expected {c.expected!r}, got {c.actual!r})"
            elif c.status == "skip":
                line += f"  ({c.actual})"
            if args.timing:
                line += f"  [{c.runtime_ms} ms]"
                if c.peak_rss_mb is not None:
                    line += f"  [peak {c.peak_rss_mb} MB]"
            print(line)
        print("summary: " + ", ".join(
            f"{count} {status}" for status, count in report.summary.items()))
        print(f"overall: {report.overall}")
    return 1 if report.overall == "fail" else 0


def cmd_diagram(args) -> int:
    ctx = context(args.n)
    sig = gr.build_sigma(ctx, force=args.force)
    root = gr.coset_vertex(ctx, args.root, IDENTITY)
    if args.refine:
        diag = sym.refined_diagram(sig.graph, root, args.root)
    else:
        diag = sym.distance_layers(sig.graph, root, args.root)
    if args.json:
        out = {"root": diag.root_label, "layers": diag.layers,
               "unreachable": diag.unreachable}
        if diag.cells is not None:
            out["cells"] = diag.cells
            out["cell_edges"] = [list(r) for r in diag.cell_edges]
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0
    print(f"root {diag.root_label}: {sum(diag.layers)} vertices reached, "
          f"{diag.unreachable} unreachable")
    print("distance | cells")
    if diag.cells is None:
        for d, size in enumerate(diag.layers):
            print(f"{d:8d} | {size}")
    else:
        up = {}
        for (d, size, d2, _size2, cnt) in diag.cell_edges or []:
            if d2 == d + 1:
                up[(d, size)] = up.get((d, size), 0) + cnt
        for d, sizes in enumerate(diag.cells):
            cells = " ".join(f"{s}:{up.get((d, s), 0)}" for s in sorted(sizes))
            print(f"{d:8d} | {cells}")
    return 0


def cmd_element(args) -> int:
    ctx = context(args.n)
    ops = {"mul": 2, "inv": 1, "comm": 2}
    if len(args.operands) != ops[args.op]:
        raise EncodingError(
            f"{args.op} takes {ops[args.op]} operand(s), got {len(args.operands)}")
    elems = [parse_element(ctx, s) for s in args.operands]
    if args.op == "mul":
        out = mul(ctx, elems[0], elems[1])
    elif args.op == "inv":
        out = inv(ctx, elems[0])
    else:
        out = comm(ctx, elems[0], elems[1])
    print(format_element(ctx, out))
    return 0


def cmd_hall(args) -> int:
    comms = hall.enumerate_basic_commutators(args.r, args.weight)
    if args.json:
        print(json.dumps({"r": args.r, "weight": args.weight,
                          "count": len(comms),
                          "commutators": [str(c) for c in comms]},
                         sort_keys=True, indent=2))
        return 0
    for c in comms:
        print(str(c))
    print(f"count: {len(comms)}")
    return 0


def cmd_aut(args) -> int:
    ctx = context(args.n)
    check_aut_cap(2 * gr._half(ctx))  # Sigma's vertex count, before the build
    sig = gr.build_sigma(ctx)
    order = automorphism_group_order(sig.graph)
    print(f"|Aut| = {order}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "graph": cmd_graph,
        "verify": cmd_verify,
        "diagram": cmd_diagram,
        "element": cmd_element,
        "hall": cmd_hall,
        "aut": cmd_aut,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, CapExceededError, OSError, MemoryError) as exc:
        msg = str(exc) or type(exc).__name__
        if isinstance(exc, CapExceededError) and "force" in args:
            msg += "; pass --force to build anyway"  # graph and diagram
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
