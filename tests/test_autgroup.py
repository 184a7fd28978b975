"""Individualization-refinement automorphism group orders against known
values, brute force on small random graphs, and the coset graph."""

import itertools
import random

import pytest

from mixdih import autgroup
from mixdih.autgroup import automorphism_group_order
from mixdih.graphs import build_sigma, graph_from_edges, quotient_by_derived
from mixdih.group import CapExceededError, context


def from_pairs(nv, pairs):
    u, v = zip(*pairs) if pairs else ((), ())
    return graph_from_edges(nv, u, v)


@pytest.mark.parametrize("nv,pairs,order", [
    (1, [], 1),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 8),           # 4-cycle: dihedral
    (3, [(0, 1), (1, 2)], 2),                           # path
    (4, [(i, j) for i in range(4) for j in range(i + 1, 4)], 24),  # K4
    (5, [], 120),                                       # empty: S5
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 72),     # 2xK3
    # K33 (even ids) + prism (odd ids): both 3-regular on 6 vertices, so
    # refinement leaves one cell holding two orbits; the branch into the
    # prism fails before the other K33 vertices are tried
    (12, [(2 * i, 2 * (3 + j)) for i in range(3) for j in range(3)]
     + [(2 * u + 1, 2 * v + 1) for u, v in [(0, 1), (1, 2), (0, 2), (3, 4),
                                            (4, 5), (3, 5), (0, 3), (1, 4),
                                            (2, 5)]], 72 * 12),
])
def test_known_orders(nv, pairs, order):
    assert automorphism_group_order(from_pairs(nv, pairs)) == order


def test_k44_wreath():
    k44 = from_pairs(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    assert automorphism_group_order(k44) == 2 * 24 * 24


def test_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    assert automorphism_group_order(from_pairs(10, outer + inner + spokes)) == 120


def brute_force_order(nv, pairs):
    eset = {frozenset(p) for p in pairs}
    count = 0
    for perm in itertools.permutations(range(nv)):
        if {frozenset((perm[a], perm[b])) for a, b in pairs} == eset:
            count += 1
    return count


@pytest.mark.parametrize("nv", range(3, 8))
def test_cycles_against_brute_force(nv):
    pairs = [(i, (i + 1) % nv) for i in range(nv)]
    assert automorphism_group_order(from_pairs(nv, pairs)) == \
        brute_force_order(nv, pairs) == 2 * nv


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_against_brute_force(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 7)
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)
             if rng.random() < 0.4]
    assert automorphism_group_order(from_pairs(nv, pairs)) == \
        brute_force_order(nv, pairs)


def test_vertex_cap():
    g = from_pairs(2000, [(0, 1)])
    with pytest.raises(CapExceededError):
        automorphism_group_order(g)


def test_quotient_aut_order():
    q = quotient_by_derived(context(2))
    assert automorphism_group_order(q) == 1152


def test_sigma_aut_order(monkeypatch):
    # full automorphism group of the 512-vertex coset graph; with siblings
    # pruned by the orbits of failed ones and the largest cell split, the
    # search refines 27 times (329 with neither rule)
    calls = []
    refine = autgroup.color_refinement

    def counting(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(autgroup, "color_refinement", counting)
    ctx = context(2)
    sig = build_sigma(ctx)
    assert automorphism_group_order(sig.graph) == 2**15 * 3**5
    assert len(calls) <= 40
