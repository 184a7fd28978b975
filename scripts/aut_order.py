#!/usr/bin/env python3
"""Compare the full automorphism group of the rank-2 coset graph with the
subgroup coming from the group action: right multiplications extended by
GL_2(2) x GL_2(2) give order 2^12 * 3^2, while the full group is larger.

Usage: python scripts/aut_order.py
"""

import time

from mixdih.autgroup import automorphism_group_order
from mixdih.graphs import build_sigma
from mixdih.group import context


def main():
    ctx = context(2)
    sig = build_sigma(ctx)
    known_subgroup = (1 << ctx.total_bits) * 6 * 6  # |group| * |GL2(2)|^2
    t0 = time.time()
    full = automorphism_group_order(sig.graph)
    dt = time.time() - t0
    print(f"group-action subgroup order : {known_subgroup} = 2^12 * 3^2")
    print(f"full automorphism group     : {full} "
          f"({'= 2^15 * 3^5' if full == 2**15 * 3**5 else 'unexpected!'})")
    print(f"index of the subgroup       : {full // known_subgroup}")
    print(f"search time                 : {dt:.3f}s")


if __name__ == "__main__":
    main()
