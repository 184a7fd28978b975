#!/usr/bin/env python3
"""Print the distance diagrams of the coset graph from both base vertices,
with the equitable refinement of each distance partition.

Usage: python scripts/distance_diagrams.py [--n 2]
"""

import argparse

from mixdih.graphs import build_sigma, coset_vertex
from mixdih.group import IDENTITY, context
from mixdih.symmetry import refined_diagram


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    args = ap.parse_args()

    ctx = context(args.n)
    sig = build_sigma(ctx)
    for side in ("X", "Y"):
        diag = refined_diagram(sig.graph, coset_vertex(ctx, side, IDENTITY),
                               side)
        print(f"=== distance diagram at {side} "
              f"({sum(diag.layers)} vertices) ===")
        print("layers:", diag.layers)
        for d, sizes in enumerate(diag.cells):
            fwd = {}
            for (dd, s, d2, s2, cnt) in diag.cell_edges:
                if dd == d and d2 == d + 1:
                    fwd.setdefault(s, []).append((s2, cnt))
            rendered = []
            for s in sorted(sizes):
                arrows = ",".join(f"{cnt}->{s2}" for s2, cnt in
                                  sorted(fwd.get(s, []))) or "-"
                rendered.append(f"{s}({arrows})")
            print(f"  d={d}: " + "  ".join(rendered))
        print()


if __name__ == "__main__":
    main()
