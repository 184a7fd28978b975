"""Graph constructions at n=2 (exact) plus small reference graphs.

networkx serves as an independent oracle for the line-graph, clique and
connectivity checks alongside the exact structural assertions.
"""

import dataclasses
import io
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, deque

import networkx as nx
import numpy as np
import pytest

from mixdih import graphs
from mixdih.bulk import PackedOps, packed_ops
from mixdih.graphs import (
    GraphConsistencyError,
    GraphData,
    bfs_distances,
    build_gamma,
    build_sigma,
    connection_set,
    coset_vertex,
    export_graph,
    export_labels,
    graph_from_edges,
    graph_from_rows,
    intersection_graph,
    is_connected,
    line_graph,
    maximal_cliques,
    parse_edgelist,
    quotient_by_derived,
    vertex_rep,
)
from mixdih.group import (
    CapExceededError,
    Element,
    IDENTITY,
    context,
    format_element,
    mul,
    xgen,
)
from mixdih.verify import ScalarOps, check_edge_bijection, run_suite


@pytest.fixture(scope="module")
def ctx2():
    return context(2)


@pytest.fixture(scope="module")
def gamma2(ctx2):
    return build_gamma(ctx2)


@pytest.fixture(scope="module")
def sigma2(ctx2):
    return build_sigma(ctx2)


def from_pairs(nv, pairs):
    u, v = zip(*pairs)
    return graph_from_edges(nv, u, v)


def to_nx(g: GraphData) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    G.add_edges_from(g.edges())
    return G


# -- GraphData plumbing -----------------------------------------------------

def test_graph_from_edges_rejects_loops():
    with pytest.raises(GraphConsistencyError):
        graph_from_edges(3, [0, 1], [0, 2])


def test_graph_from_edges_rejects_duplicates():
    with pytest.raises(GraphConsistencyError):
        graph_from_edges(3, [0, 1, 1], [1, 0, 2])


def test_graph_from_rows():
    g = graph_from_rows(np.array([[1, 2], [0, 2], [0, 1]]))
    assert g.num_edges == 3
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_graph_from_rows_rejects_repeated_neighbor():
    with pytest.raises(GraphConsistencyError):
        graph_from_rows(np.array([[1, 1], [0, 0]]))


def test_graph_from_rows_checks_every_row_block():
    """More rows than one ROW_CHUNK block: a repeat in the last row still
    raises, and indptr steps by the degree."""
    rows = np.tile(np.array([[1, 2]]), (graphs.ROW_CHUNK + 1, 1))
    g = graph_from_rows(rows)
    assert np.array_equal(g.indptr, 2 * np.arange(graphs.ROW_CHUNK + 2))
    rows[-1] = [2, 2]
    with pytest.raises(GraphConsistencyError):
        graph_from_rows(rows)


def test_indptr_and_degrees_in_index_dtype(sigma2, gamma2):
    # the clique graphs of a perfect matching and of a triangle have no
    # edge: two disjoint cliques, and one clique
    for g in (sigma2.graph, gamma2, from_pairs(3, [(0, 1), (1, 2)]),
              intersection_graph(maximal_cliques(
                  from_pairs(4, [(0, 1), (2, 3)]))),
              intersection_graph(maximal_cliques(
                  from_pairs(3, [(0, 1), (1, 2), (0, 2)])))):
        assert g.indptr.dtype == g.degrees().dtype == np.int32


def test_neighbor_table_of_irregular_graph_in_index_dtype():
    g = from_pairs(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert g.indices.dtype == np.int32
    nb = g.neighbor_table()
    assert nb.dtype == g.indices.dtype
    assert nb.tolist() == [[1, 2, -1], [0, 2, -1], [0, 1, 3], [2, -1, -1]]


# -- BFS -----------------------------------------------------------------------

def deque_bfs(nv, pairs, root, max_depth):
    """Reference: textbook queue BFS, no expansion past max_depth."""
    adj = [[] for _ in range(nv)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * nv
    dist[root] = 0
    queue = deque([root])
    while queue:
        x = queue.popleft()
        if max_depth is not None and dist[x] >= max_depth:
            continue
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


@pytest.mark.parametrize("seed", range(10))
def test_bfs_matches_deque_reference(monkeypatch, seed):
    # three components (a random tree plus chords each) over a shuffled
    # vertex order, then one to three isolated vertices: irregular, so
    # the neighbor table is padded
    rng = random.Random(seed)
    nv = rng.randint(8, 40)
    order = rng.sample(range(nv), nv)
    isolated = rng.randint(1, 3)
    cut1, cut2 = sorted(rng.sample(range(1, nv - isolated), 2))
    pairs = set()
    for block in (order[:cut1], order[cut1:cut2], order[cut2:nv - isolated]):
        for i in range(1, len(block)):
            pairs.add(tuple(sorted((block[i], block[rng.randrange(i)]))))
        for _ in range(len(block) if len(block) > 2 else 0):
            pairs.add(tuple(sorted(rng.sample(block, 2))))
    pairs = sorted(pairs)
    g = from_pairs(nv, pairs)
    assert g.neighbor_table().size > len(g.indices)
    roots = (order[0], order[cut2], order[-1], rng.randrange(nv))
    # row blocks of 1 split every frontier across blocks
    for chunk in (graphs.ROW_CHUNK, 1):
        monkeypatch.setattr(graphs, "ROW_CHUNK", chunk)
        for root in roots:
            for depth in (None, 0, 1, 2, 3):
                dist = bfs_distances(g, root, depth)
                assert dist.dtype == np.int32  # the index dtype of nv ids
                assert dist.tolist() == deque_bfs(nv, pairs, root, depth), \
                    (chunk, root, depth)


# -- connection set and Cayley graph -------------------------------------------

def test_connection_set(ctx2):
    s = connection_set(ctx2)
    assert len(s) == 6
    assert all(e != IDENTITY for e in s)
    # inverse-closed: every member is an involution
    assert all(mul(ctx2, e, e) == IDENTITY for e in s)


def test_gamma_stats(ctx2, gamma2):
    assert gamma2.num_vertices == 1024
    assert gamma2.num_edges == 3072
    assert set(gamma2.degrees().tolist()) == {6}
    assert is_connected(gamma2)
    assert nx.is_connected(to_nx(gamma2))


def test_gamma_neighbors_of_identity(ctx2, gamma2):
    nbrs = {int(v) for v in gamma2.neighbors(0)}
    s = {ctx2.pack(e) for e in connection_set(ctx2)}
    assert nbrs == s


def test_gamma_matches_edge_reference(ctx2, gamma2):
    # the row build against the generic edge-list build of z -- s*z
    ops = packed_ops(ctx2)
    z = ops.all_elements().astype(np.int64)
    u, v = [], []
    for s in connection_set(ctx2):
        sz = ops.left_mul(s, ops.all_elements()).astype(np.int64)
        u.append(z[z < sz])
        v.append(sz[z < sz])
    ref = graph_from_edges(1024, np.concatenate(u), np.concatenate(v))
    assert gamma2.num_edges == ref.num_edges
    assert np.array_equal(gamma2.indptr, ref.indptr)
    assert gamma2.indices.dtype == ref.indices.dtype
    assert np.array_equal(gamma2.indices, ref.indices)


@pytest.mark.parametrize("broken", ["identity", "shift"])
def test_gamma_rejects_broken_left_mul(monkeypatch, broken):
    # s*z = z gives a loop; z -> z+1 is no involution, so the rows are
    # not symmetric
    original = PackedOps.left_mul
    x1 = xgen(context(2), 1)

    def left_mul(self, s, z):
        if s != x1:
            return original(self, s, z)
        return z.copy() if broken == "identity" else (z + 1) % 1024
    monkeypatch.setattr(PackedOps, "left_mul", left_mul)
    with pytest.raises(GraphConsistencyError):
        build_gamma(context(2))


def test_left_mul_takes_x_or_y_letters(ctx2):
    # an s with both an a and a b block meets phi, which left_mul skips
    ops = packed_ops(ctx2)
    with pytest.raises(ValueError):
        ops.left_mul(Element(a=1, b=1), ops.all_elements())


def test_gamma_cap():
    with pytest.raises(CapExceededError):
        build_gamma(context(3))  # 2^24 vertices needs force


# -- canonical cosets ------------------------------------------------------------

def test_canonical_coset_x_zeroes_a(ctx2):
    h = Element(a=0b11, b=0b01, m=0b0110, t=0b10)
    v = coset_vertex(ctx2, "X", h)
    assert v == ctx2.pack(h) >> 2
    assert vertex_rep(ctx2, v) == Element(a=0, b=0b01, m=0b0110, t=0b10)


def test_canonical_coset_y_of_x1(ctx2):
    # the orbit of x1 under left y-multiples has b=0 exactly at x1
    v = coset_vertex(ctx2, "Y", xgen(ctx2, 1))
    assert v == 256 + 1
    assert vertex_rep(ctx2, v) == xgen(ctx2, 1)


def test_canonical_coset_y_minimal_by_enumeration(ctx2):
    import random
    rng = random.Random(7)
    for _ in range(200):
        h = ctx2.unpack(rng.getrandbits(10))
        members = [mul(ctx2, Element(b=b), h) for b in range(4)]
        best = min(members, key=lambda e: e.key())
        assert vertex_rep(ctx2, coset_vertex(ctx2, "Y", h)) == best
        assert best.b == 0


def test_canonical_coset_bad_side(ctx2):
    with pytest.raises(ValueError):
        coset_vertex(ctx2, "Z", IDENTITY)


def test_coset_vertex_numbering_rank4_without_sigma():
    # at n = 4 no coset graph can be built; the numbering still holds
    ctx = context(4)
    half = 1 << (ctx.total_bits - ctx.n)
    rng = random.Random(4)
    for _ in range(50):
        h = ctx.unpack(rng.getrandbits(ctx.total_bits))
        c = rng.getrandbits(ctx.n)
        vx, vy = coset_vertex(ctx, "X", h), coset_vertex(ctx, "Y", h)
        assert 0 <= vx < half <= vy < 2 * half
        assert coset_vertex(ctx, "X", mul(ctx, Element(a=c), h)) == vx
        assert coset_vertex(ctx, "Y", mul(ctx, Element(b=c), h)) == vy
        assert coset_vertex(ctx, "X", vertex_rep(ctx, vx)) == vx
        assert coset_vertex(ctx, "Y", vertex_rep(ctx, vy)) == vy
        assert vertex_rep(ctx, vx).a == vertex_rep(ctx, vy).b == 0


def test_one_numbering_across_kernels_and_sigma(ctx2, sigma2):
    # every element: the scalar ids are the ends of its edge, and the
    # coset keys of both kernels are those ids less each side's first id
    ops = packed_ops(ctx2)
    z = ops.all_elements()
    xs = [coset_vertex(ctx2, "X", ctx2.unpack(int(k))) for k in z]
    ys = [coset_vertex(ctx2, "Y", ctx2.unpack(int(k))) for k in z]
    u, v = sigma2.edge_ends(z)
    assert u.tolist() == xs and v.tolist() == ys
    assert ops.x_coset_key(z).tolist() == xs
    assert (ops.y_coset_key(z) + np.uint32(sigma2.half)).tolist() == ys
    scalar = ScalarOps(ctx2)
    assert np.array_equal(scalar.x_coset_key(z), ops.x_coset_key(z))
    assert np.array_equal(scalar.y_coset_key(z), ops.y_coset_key(z))


# -- coset graph ------------------------------------------------------------------

def test_sigma_stats(sigma2):
    g = sigma2.graph
    assert g.num_vertices == 512
    assert g.num_edges == 1024
    assert set(g.degrees().tolist()) == {4}
    assert int((g.sides == 0).sum()) == 256
    assert int((g.sides == 1).sum()) == 256
    assert is_connected(g)


def test_sigma_bipartite(sigma2):
    g = sigma2.graph
    eu, ev = g.edge_array()
    assert np.all(g.sides[eu] != g.sides[ev])


def test_edge_bijection(ctx2, sigma2):
    # z -> {X-coset(z), Y-coset(z)} is a bijection onto the edges
    edges = set(sigma2.graph.edges())
    seen = set()
    for z in range(1024):
        cx = coset_vertex(ctx2, "X", ctx2.unpack(z))
        cy = coset_vertex(ctx2, "Y", ctx2.unpack(z))
        assert (cx, cy) in edges
        seen.add((cx, cy))
    assert seen == edges and len(edges) == 1024


def test_sigma_matches_edge_reference(ctx2, sigma2):
    # the closed-form rows against the generic edge-list build of
    # {X-key(z), half + Y-key(z)}, the edge of z
    ops = packed_ops(ctx2)
    z = ops.all_elements()
    half = sigma2.half
    u = ops.x_coset_key(z).astype(np.int64)
    v = ops.y_coset_key(z).astype(np.int64) + half
    ref = graph_from_edges(2 * half, u, v)
    order = np.lexsort((v, u))
    su, sv = sigma2.edge_ends(z)
    assert np.array_equal(su, u) and np.array_equal(sv, v)
    g = sigma2.graph
    assert g.num_edges == ref.num_edges == 1024
    assert np.array_equal(g.indptr, ref.indptr)
    assert g.indices.dtype == ref.indices.dtype
    assert np.array_equal(g.indices, ref.indices)
    eu, ev = g.edge_array()
    assert np.array_equal(eu, u[order]) and np.array_equal(ev, v[order])


def _collapse_one_to_zero(keys):
    return np.where(keys == 1, 0, keys).astype(np.uint32)


def _swap_zero_and_one(keys):
    return np.where(keys < 2, keys ^ 1, keys).astype(np.uint32)


def _swap_last_two(keys):
    # Y keys 254 and 255 of n=2: both in the last row block, which is
    # partial (252..255) at chunk 7
    return np.where(keys >= 254, keys ^ 1, keys).astype(np.uint32)


@pytest.mark.parametrize("corrupt", [_collapse_one_to_zero,
                                     _swap_zero_and_one, _swap_last_two])
def test_sigma_rejects_corrupted_coset_keys(monkeypatch, corrupt):
    # collapsing keys 0 and 1 repeats a neighbor in the X row of the
    # identity; a swap keeps the X rows strictly increasing but breaks
    # their transpose against the Y rows of the swapped keys only, so
    # the per-block transpose check must visit every block, at one block
    # and at row blocks of 7
    original = PackedOps.y_coset_key
    monkeypatch.setattr(PackedOps, "y_coset_key",
                        lambda self, z: corrupt(original(self, z)))
    for chunk in (graphs.ROW_CHUNK, 7):
        monkeypatch.setattr(graphs, "ROW_CHUNK", chunk)
        with pytest.raises(GraphConsistencyError):
            build_sigma(context(2))


def test_sigma_rejects_corrupted_y_member(monkeypatch):
    # element 1023 lies in X row 255, in the last row block, which is
    # partial (252..255) at chunk 7; flipping one bit of the member equal
    # to it leaves every Y row as it was, so only the transpose check of
    # that block can see it
    original = PackedOps.y_member

    def corrupt(self, keys, c):
        out = original(self, keys, c)
        return out ^ (out == 1023).astype(np.uint32)

    monkeypatch.setattr(PackedOps, "y_member", corrupt)
    for chunk in (graphs.ROW_CHUNK, 7):
        monkeypatch.setattr(graphs, "ROW_CHUNK", chunk)
        with pytest.raises(GraphConsistencyError, match="transpose"):
            build_sigma(context(2))


@pytest.mark.parametrize("n", [2, 3])
def test_y_coset_paths_match_general_product(n):
    # y_coset_key, y_coset and left_mul read yx alone; each is compared
    # with the general product, which reads phi too: every element and
    # key at n=2, 2^20 random ones at n=3
    ctx = context(n)
    ops = packed_ops(ctx)
    half = graphs._half(ctx)
    if n == 2:
        z, keys = ops.all_elements(), np.arange(half, dtype=np.uint32)
    else:
        gen = np.random.default_rng(n)
        z = gen.integers(0, 1 << ctx.total_bits, 1 << 20, dtype=np.uint32)
        keys = gen.integers(0, half, 1 << 20, dtype=np.uint32)
    b_mask = ops.mask_n << np.uint32(n)
    assert np.array_equal(ops.y_coset_key(z),
                          ctx.y_key(ops.mul(z & b_mask, z)))
    members, rep = ops.y_coset(keys), ctx.y_rep(keys)
    for c in range(1 << n):
        want = ops.mul(np.full_like(rep, ctx.pack(Element(b=c))), rep)
        assert np.array_equal(members[:, c], want)
        assert np.array_equal(ops.left_mul(Element(b=c), rep), want)


def test_sigma_row_blocks_match_default_build(monkeypatch, sigma2):
    # 7 does not divide the 256 cosets per side: the last X and Y blocks
    # are partial
    monkeypatch.setattr(graphs, "ROW_CHUNK", 7)
    blocked = build_sigma(context(2))
    for got, want in ((blocked.graph.indptr, sigma2.graph.indptr),
                      (blocked.graph.indices, sigma2.graph.indices),
                      (blocked.graph.sides, sigma2.graph.sides)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("resort", [False, True])
def test_edge_bijection_check_is_exhaustive(ctx2, sigma2, y_neighbor_moved,
                                            resort):
    # no samples: only the exhaustive route can see the moved edge, whether
    # its rows stay sorted or not
    status, _, _ = check_edge_bijection(ctx2, 0, random.Random(0),
                                        {"sigma": sigma2})
    assert status == "pass"
    bad = y_neighbor_moved(sigma2, 0, 200, resort)
    status, _, actual = check_edge_bijection(ctx2, 0, random.Random(0),
                                             {"sigma": bad})
    assert (status, actual) == ("fail", "mismatch")


def test_duality_checks_see_a_y_neighbor_moved(sigma2, y_neighbor_moved,
                                               monkeypatch):
    bad = y_neighbor_moved(sigma2, 0, 200)
    monkeypatch.setattr(graphs, "build_sigma", lambda ctx, force=False: bad)
    got = {c.name: c for c in run_suite(2, "graphs").checks}
    assert got["clique-coset-duality"].status == "fail"
    assert got["clique-coset-duality"].actual["clique_graph_isomorphic"] \
        is False
    assert got["line-graph-duality"].status == "fail"


def test_sigma_vertex_ids_sorted_by_encoding(ctx2, sigma2):
    # X-side ids ascend with the representative encoding
    reps = [ctx2.pack(vertex_rep(ctx2, v)) for v in range(sigma2.half)]
    assert reps == sorted(reps)
    reps_y = [ctx2.pack(vertex_rep(ctx2, v))
              for v in range(sigma2.half, 2 * sigma2.half)]
    assert reps_y == sorted(reps_y)


# -- line graphs --------------------------------------------------------------------

def test_line_graph_c4():
    c4 = from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    lg = line_graph(c4)
    assert lg.num_vertices == 4 and lg.num_edges == 4
    assert set(lg.degrees().tolist()) == {2}


def test_line_graph_star():
    star = from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    lg = line_graph(star)
    assert lg.num_vertices == 3 and lg.num_edges == 3  # triangle


def test_line_graph_matches_networkx(sigma2):
    lg = line_graph(sigma2.graph)
    nxl = nx.line_graph(to_nx(sigma2.graph))
    assert lg.num_vertices == nxl.number_of_nodes()
    assert lg.num_edges == nxl.number_of_edges()
    # networkx names a line-graph vertex by its edge tuple; ours is the
    # edge's position in sorted edge order
    eid = {e: i for i, e in enumerate(sigma2.graph.edges())}

    def node_id(edge):
        return eid[tuple(sorted(edge))]

    theirs = sorted(tuple(sorted((node_id(a), node_id(b))))
                    for a, b in nxl.edges())
    assert list(lg.edges()) == theirs


def test_line_graph_of_sigma_is_gamma(ctx2, sigma2, gamma2):
    lg = line_graph(sigma2.graph)
    assert (lg.num_vertices, lg.num_edges) == (1024, 3072)
    # phi[z]: the line-graph vertex (sorted edge position) of the edge of z
    u, v = sigma2.edge_ends(packed_ops(ctx2).all_elements())
    phi = np.empty(1024, dtype=np.int64)
    phi[np.lexsort((v, u))] = np.arange(1024)
    gu, gv = gamma2.edge_array()
    lu, lv = lg.edge_array()
    ne = np.int64(lg.num_vertices)
    lhs = np.sort(np.minimum(phi[gu], phi[gv]) * ne
                  + np.maximum(phi[gu], phi[gv]))
    rhs = np.sort(lu * ne + lv)
    assert np.array_equal(lhs, rhs)


# -- cliques ---------------------------------------------------------------------------

def test_cliques_k4():
    k4 = from_pairs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert maximal_cliques(k4) == [(0, 1, 2, 3)]


def test_cliques_c4():
    c4 = from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert maximal_cliques(c4) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_cliques_match_networkx(gamma2):
    ours = maximal_cliques(gamma2)
    theirs = {tuple(sorted(c)) for c in nx.find_cliques(to_nx(gamma2))}
    assert set(ours) == theirs


def test_gamma_cliques_are_cosets(ctx2, gamma2):
    cliques = maximal_cliques(gamma2)
    assert len(cliques) == 512
    assert all(len(c) == 4 for c in cliques)
    for c in cliques[:64]:
        z0 = ctx2.unpack(c[0])
        x_coset = {ctx2.pack(mul(ctx2, Element(a=a), z0)) for a in range(4)}
        y_coset = {ctx2.pack(mul(ctx2, Element(b=b), z0)) for b in range(4)}
        assert set(c) in (x_coset, y_coset)


def test_clique_cap():
    big = graph_from_edges(5000, [0], [1])
    with pytest.raises(CapExceededError):
        maximal_cliques(big)


def test_clique_graph_k4():
    k4 = from_pairs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    cg = intersection_graph(maximal_cliques(k4))
    assert cg.num_vertices == 1 and cg.num_edges == 0


def test_clique_graph_p3():
    p3 = from_pairs(3, [(0, 1), (1, 2)])
    cg = intersection_graph(maximal_cliques(p3))
    assert cg.num_vertices == 2 and cg.num_edges == 1


def test_intersection_graph_of_sets_sharing_two_vertices():
    # K4 minus the edge 0-3: the maximal cliques {0,1,2} and {1,2,3} share
    # two vertices, which is one edge, not a duplicate
    k4_minus = from_pairs(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    cliques = maximal_cliques(k4_minus)
    assert cliques == [(0, 1, 2), (1, 2, 3)]
    cg = intersection_graph(cliques)
    assert (cg.num_vertices, cg.num_edges) == (2, 1)
    assert list(cg.edges()) == [(0, 1)]


def test_intersection_graph_of_no_sets():
    g = intersection_graph([])
    assert (g.num_vertices, g.num_edges) == (0, 0)
    assert g.indptr.tolist() == [0] and len(g.indices) == 0


def test_clique_graph_of_gamma_is_sigma(ctx2, gamma2, sigma2):
    cliques = maximal_cliques(gamma2)
    ids = []
    for c in cliques:
        z0 = ctx2.unpack(c[0])
        side = "X" if {ctx2.pack(mul(ctx2, Element(a=a), z0))
                       for a in range(4)} == set(c) else "Y"
        ids.append(coset_vertex(ctx2, side, z0))
    cg = intersection_graph(cliques)
    permv = np.array(ids)
    cu, cv = cg.edge_array()
    su, sv = sigma2.graph.edge_array()
    nv = np.int64(sigma2.graph.num_vertices)
    lhs = np.sort(np.minimum(permv[cu], permv[cv]) * nv
                  + np.maximum(permv[cu], permv[cv]))
    rhs = np.sort(su * nv + sv)
    assert np.array_equal(lhs, rhs)


def test_graph_suite_enumerates_the_cliques_once(monkeypatch):
    calls = Counter()
    real = graphs.maximal_cliques

    def counted(g, *args, **kwargs):
        calls["maximal_cliques"] += 1
        return real(g, *args, **kwargs)

    monkeypatch.setattr(graphs, "maximal_cliques", counted)
    report = run_suite(2, "graphs")
    status = {c.name: c.status for c in report.checks}
    assert status["clique-coset-duality"] == "pass"
    assert calls == {"maximal_cliques": 1}


# -- quotient ----------------------------------------------------------------------------

def test_graph_suite_builds_the_quotient_once(monkeypatch):
    calls = Counter()
    real = graphs.quotient_by_derived

    def counted(ctx, sigma):
        calls["quotient_by_derived"] += 1
        return real(ctx, sigma)

    monkeypatch.setattr(graphs, "quotient_by_derived", counted)
    report = run_suite(2, "graphs")
    status = {c.name: c.status for c in report.checks}
    assert status["derived-quotient-cover"] == "pass"
    assert status["export-roundtrip"] == "pass"
    assert calls == {"quotient_by_derived": 1}


def test_quotient_is_k44(ctx2, sigma2):
    q = quotient_by_derived(ctx2, sigma2)
    assert q.num_vertices == 8
    assert q.num_edges == 16
    assert set(q.degrees().tolist()) == {4}
    for u in range(4):
        for v in range(4, 8):
            assert q.has_edge(u, v)


def test_quotient_fibers_uniform(ctx2, sigma2):
    g = sigma2.graph
    half = sigma2.half
    counts = {}
    for vid in range(g.num_vertices):
        rep = vertex_rep(ctx2, vid)
        key = ("X", rep.b) if vid < half else ("Y", rep.a)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) == {64}
    assert len(counts) == 8



def test_quotient_matches_edge_reference(ctx2, sigma2):
    """The class pairs counted from the X rows give the graph that the
    deduplicated class images of every edge give."""
    g, half = sigma2.graph, sigma2.half
    vids = np.arange(g.num_vertices)
    cls = np.where(vids < half, vids & 3, 4 + ((vids - half) & 3))
    eu, ev = g.edge_array()
    pairs = np.unique(np.stack([cls[eu], cls[ev]], axis=1), axis=0)
    ref = graph_from_edges(8, pairs[:, 0], pairs[:, 1])
    q = quotient_by_derived(ctx2, sigma2)
    assert q.num_edges == ref.num_edges == 16
    assert np.array_equal(q.indptr, ref.indptr)
    assert np.array_equal(q.indices, ref.indices)
    assert q.sides.tolist() == [0] * 4 + [1] * 4


def test_quotient_rejects_corrupted_sigma(ctx2, sigma2):
    g = sigma2.graph
    indices = g.indices.copy()
    # X vertex 0 trades one neighbor for a Y vertex of another class
    indices[0] = indices[0] ^ 1
    bad = dataclasses.replace(
        sigma2, graph=dataclasses.replace(g, indices=indices))
    with pytest.raises(GraphConsistencyError, match="lift uniformly"):
        quotient_by_derived(ctx2, bad)

# -- export -------------------------------------------------------------------------------

def test_export_edgelist_header_and_content(ctx2, sigma2):
    q = quotient_by_derived(ctx2, sigma2)
    buf = io.StringIO()
    export_graph(q, buf, "edgelist", n=2, kind="quotient")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# hn-graph n=2 kind=quotient vertices=8 edges=16"
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert len(pairs) == 16
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    nv, edges = parse_edgelist(lines)
    assert nv == 8 and len(edges) == 16


def test_export_dot_roundtrip(ctx2, sigma2):
    import re
    q = quotient_by_derived(ctx2, sigma2)
    buf = io.StringIO()
    export_graph(q, buf, "dot", n=2, kind="quotient")
    text = buf.getvalue()
    assert text.startswith("graph {") and text.rstrip().endswith("}")
    found = {(int(a), int(b)) for a, b in re.findall(r"(\d+) -- (\d+);", text)}
    assert found == set(q.edges())
    # parses under standard graph tooling
    G = nx.parse_edgelist((f"{a} {b}" for a, b in found),
                          nodetype=int)
    assert G.number_of_edges() == 16


def test_export_labels(ctx2, sigma2):
    buf = io.StringIO()
    export_labels(sigma2.graph, buf,
                  lambda v: format_element(ctx2, vertex_rep(ctx2, v)))
    lines = buf.getvalue().splitlines()
    assert len(lines) == 512
    vid, side, enc = lines[0].split("\t")
    assert vid == "0" and side == "X" and enc == format_element(ctx2, IDENTITY)
    vid, side, enc = lines[256].split("\t")
    assert vid == "256" and side == "Y"


def test_export_deterministic(ctx2, sigma2):
    q = quotient_by_derived(ctx2, sigma2)
    a, b = io.StringIO(), io.StringIO()
    export_graph(q, a, "edgelist", n=2, kind="quotient")
    export_graph(q, b, "edgelist", n=2, kind="quotient")
    assert a.getvalue() == b.getvalue()


def test_export_unknown_format(ctx2, sigma2):
    with pytest.raises(ValueError):
        export_graph(sigma2.graph, io.StringIO(), "gml")


def reference_export(g, fmt, n, kind):
    """The export written one f-string per edge, from the CSR rows."""
    edges = [(u, int(v)) for u in range(g.num_vertices)
             for v in g.neighbors(u) if u < v]
    if fmt == "edgelist":
        lines = [f"# hn-graph n={n} kind={kind} "
                 f"vertices={g.num_vertices} edges={g.num_edges}\n"]
        lines += [f"{u} {v}\n" for u, v in edges]
    else:
        lines = ["graph {\n"]
        lines += [f"  {v};\n" for v in range(g.num_vertices)
                  if g.degree(v) == 0]
        lines += [f"  {u} -- {v};\n" for u, v in edges]
        lines.append("}\n")
    return "".join(lines)


def _family_graph(kind, ctx2, sigma2, gamma2):
    if kind == "sigma":
        return sigma2.graph
    if kind == "gamma":
        return gamma2
    if kind == "quotient":
        return quotient_by_derived(ctx2, sigma2)
    return line_graph(sigma2.graph)


@pytest.mark.parametrize("chunk", [graphs.EXPORT_CHUNK, 3])
@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
@pytest.mark.parametrize("kind", ["sigma", "gamma", "quotient", "linegraph"])
def test_export_matches_per_edge_reference(monkeypatch, ctx2, sigma2, gamma2,
                                           kind, fmt, chunk):
    # chunk 3 is below the valency: every write holds a single row
    monkeypatch.setattr(graphs, "EXPORT_CHUNK", chunk)
    g = _family_graph(kind, ctx2, sigma2, gamma2)
    buf = io.StringIO()
    export_graph(g, buf, fmt, n=2, kind=kind)
    assert buf.getvalue() == reference_export(g, fmt, 2, kind)


# ids across digit-count boundaries; vertex 101 and most others isolated
HAND_PAIRS = [(0, 9), (9, 10), (10, 99), (0, 100), (99, 100), (0, 10)]


@pytest.mark.parametrize("chunk", [graphs.EXPORT_CHUNK, 1])
@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_export_hand_graph(monkeypatch, fmt, chunk):
    monkeypatch.setattr(graphs, "EXPORT_CHUNK", chunk)
    g = from_pairs(102, HAND_PAIRS)
    buf = io.StringIO()
    export_graph(g, buf, fmt, n=None, kind="hand")
    text = buf.getvalue()
    assert text == reference_export(g, fmt, None, "hand")
    if fmt == "dot":
        assert "  101;\n" in text and "  0;\n" not in text
        assert "  9 -- 10;\n  10 -- 99;\n" in text
    else:
        assert text.endswith("0 9\n0 10\n0 100\n9 10\n10 99\n99 100\n")


@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_export_skips_rows_without_up_edges(monkeypatch, sigma2, fmt):
    # one row per run: the Y rows of sigma hold only down-edges, and the
    # hand graph ends in a row of down-edges (100) and an isolated vertex
    # (101), so no run from them reaches edge_array
    monkeypatch.setattr(graphs, "EXPORT_CHUNK", 1)
    starts = []
    original = GraphData.edge_array

    def spy(self, start=0, stop=None):
        starts.append(start)
        return original(self, start, stop)

    monkeypatch.setattr(GraphData, "edge_array", spy)
    hand = from_pairs(102, HAND_PAIRS)
    for g, up in ((sigma2.graph, list(range(sigma2.half))),
                  (hand, [0, 9, 10, 99])):
        starts.clear()
        buf = io.StringIO()
        export_graph(g, buf, fmt, n=2, kind="test")
        assert sorted(starts) == up  # run starts are recorded by workers
        assert buf.getvalue() == reference_export(g, fmt, 2, "test")


FORMAT_VALUES = [0, 9, 10, 99, 100, 2**31 - 1, 2**32 - 1, 2**32, 10**12]


@pytest.mark.parametrize("literals", [("", " ", "\n"), ("  ", " -- ", ";\n")])
@pytest.mark.parametrize("stop", range(1, len(FORMAT_VALUES) + 1))
def test_format_lines_matches_fstrings(literals, stop):
    # every pair of the first `stop` values, so each prefix's last value is
    # a column maximum: 2^32 - 1 is the largest the uint32 digits may see,
    # and 2^32 and 10^12 must take the uint64 ones
    values = FORMAT_VALUES[:stop]
    pairs = [(u, v) for u in values for v in values]
    u, v = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    want = "".join(f"{literals[0]}{a}{literals[1]}{b}{literals[2]}"
                   for a, b in pairs)
    assert graphs._format_lines(literals, u, v) == want
    assert graphs._format_lines(literals[::2], v) == "".join(
        f"{literals[0]}{b}{literals[2]}" for _, b in pairs)


@pytest.mark.parametrize("values", [[2**32 - 1, 1000000000, 4000000000],
                                    [2**32, 10**10 - 1, 5 * 10**9]])
def test_format_lines_without_pads(values):
    # equal digit counts in each column: no pad byte to drop
    u = np.array(values, dtype=np.int64)
    v = u[::-1].copy()
    want = "".join(f"{a} {b}\n" for a, b in zip(values, values[::-1]))
    assert graphs._format_lines(("", " ", "\n"), u, v) == want


def test_export_empty_graph():
    g = GraphData(2, 0, np.zeros(3, dtype=np.int64),
                  np.zeros(0, dtype=np.int32))
    for fmt in ("edgelist", "dot"):
        buf = io.StringIO()
        export_graph(g, buf, fmt, n=2, kind="empty")
        assert buf.getvalue() == reference_export(g, fmt, 2, "empty")


# -- the row-block runner ------------------------------------------------------

def test_in_blocks_yields_in_item_order():
    items = list(range(40))
    assert list(graphs.in_blocks(lambda i: i * i, items)) == [
        i * i for i in items]
    assert list(graphs.in_blocks(str, [])) == []


def test_in_blocks_stops_at_the_first_false_in_order():
    calls = []

    def block(i):
        calls.append(i)
        return i != 10

    assert not all(graphs.in_blocks(block, range(200)))
    # blocks past the failing one start only while it is in flight
    assert set(range(11)) <= set(calls) <= set(range(11 + graphs.WORKERS))


def test_bfs_in_small_blocks_matches_default_chunks(monkeypatch, sigma2,
                                                   gamma2):
    # blocks of 7 frontier rows split a BFS layer into up to 39 blocks on
    # the pool: BFS from every 9th root (both sides of sigma), at every
    # depth from every 99th, as at the default chunk (the build and the
    # exports in small blocks are compared by
    # test_sigma_row_blocks_match_default_build and
    # test_export_matches_per_edge_reference)
    def runs(g):
        for root in range(0, g.num_vertices, 9):
            yield bfs_distances(g, root)
            if root % 99 == 0:
                yield from (bfs_distances(g, root, depth)
                            for depth in range(11))

    want = [list(runs(g)) for g in (sigma2.graph, gamma2)]
    monkeypatch.setattr(graphs, "ROW_CHUNK", 7)
    for g, want_g in zip((sigma2.graph, gamma2), want):
        got = list(runs(g))
        assert len(got) == len(want_g)
        assert all(np.array_equal(a, b) for a, b in zip(got, want_g))


def test_runner_stress_more_workers_than_cores(monkeypatch, ctx2, sigma2):
    # 8 workers switching every microsecond: never more than 8 blocks in
    # flight, results in order, and the build and BFS marks of blocks of
    # 3 rows as at the defaults
    want_bfs = [bfs_distances(sigma2.graph, root) for root in (0, 300)]
    monkeypatch.setattr(graphs, "WORKERS", 8)
    monkeypatch.setattr(graphs, "_pool", None)
    monkeypatch.setattr(graphs, "ROW_CHUNK", 3)
    lock, live = threading.Lock(), [0, 0]  # in flight now, at most

    def block(i):
        with lock:
            live[0] += 1
            live[1] = max(live)
        time.sleep(0.001)
        with lock:
            live[0] -= 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert list(graphs.in_blocks(block, range(100))) == list(range(100))
        assert 1 < live[1] <= 8
        built = build_sigma(ctx2).graph
        assert np.array_equal(built.indptr, sigma2.graph.indptr)
        assert np.array_equal(built.indices, sigma2.graph.indices)
        for root, want in zip((0, 300), want_bfs):
            assert np.array_equal(bfs_distances(sigma2.graph, root), want)
    finally:
        sys.setswitchinterval(interval)
        if graphs._pool is not None:
            graphs._pool.shutdown()


def test_worker_block_error_propagates(monkeypatch):
    # one key block of 37 fails in whichever thread runs it
    original = graphs.coset_rows

    def corrupt(ctx, side, keys):
        if side == "Y" and keys[0] == 7 * 20:
            raise GraphConsistencyError("corrupted block 20")
        return original(ctx, side, keys)

    monkeypatch.setattr(graphs, "ROW_CHUNK", 7)
    monkeypatch.setattr(graphs, "coset_rows", corrupt)
    with pytest.raises(GraphConsistencyError, match="corrupted block 20"):
        build_sigma(context(2))


def test_rank2_suite_starts_no_thread():
    # every rank-2 loop is one block, so it runs inline
    code = ("import threading\n"
            "from mixdih import graphs\n"
            "from mixdih.verify import run_suite\n"
            "assert run_suite(2, 'all').overall == 'pass'\n"
            "print(graphs._pool is None, threading.active_count())\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "1"]


@pytest.mark.skipif(not hasattr(os, "fork") or graphs.WORKERS < 2,
                    reason="needs fork and two CPUs")
def test_forked_child_starts_its_own_pool():
    # the child inherits the parent's started pool but none of its threads
    assert list(graphs.in_blocks(abs, [-1, -2])) == [1, 2]
    assert graphs._pool is not None
    pid = os.fork()
    if pid == 0:
        signal.alarm(60)  # a child waiting on the parent's threads dies
        ok = graphs._pool is None and list(
            graphs.in_blocks(abs, [-3, -4])) == [3, 4]
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
