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
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from mixdih import graphs, verify
from mixdih.bulk import PackedOps, packed_ops
from mixdih.graphs import (
    GraphConsistencyError,
    GraphData,
    bfs_distances,
    build_gamma,
    build_sigma,
    connection_set,
    coset_rows,
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
    walk,
)
from mixdih.group import (
    CapExceededError,
    Element,
    GroupContext,
    IDENTITY,
    context,
    format_element,
    mul,
    xgen,
)
from mixdih.verify import ScalarOps, check_coset_graph_stats, \
    check_edge_bijection, check_quotient_cover, run_suite


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
    u, v = zip(*pairs) if pairs else ((), ())
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


def test_graph_from_rows_keeps_the_table_it_is_given():
    rows = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int32)
    g = graph_from_rows(rows)
    assert np.shares_memory(g.rows, rows) and g.rows.dtype == np.int32
    assert not g.rows.flags.writeable and rows.flags.writeable
    assert np.array_equal(g.rows, rows)
    # another dtype is copied once into the index dtype
    wide = graph_from_rows(rows.astype(np.int64)).rows
    assert wide.dtype == np.int32 and not wide.flags.writeable


def test_graph_from_rows_rejects_repeated_neighbor():
    with pytest.raises(GraphConsistencyError):
        graph_from_rows(np.array([[1, 1], [0, 0]]))


def test_graph_from_rows_checks_every_row_block():
    """More rows than one ROW_CHUNK block: a repeat in the last row still
    raises, and the degrees are the row width."""
    rows = np.tile(np.array([[1, 2]]), (graphs.ROW_CHUNK + 1, 1))
    g = graph_from_rows(rows)
    assert np.array_equal(g.degrees(), np.full(graphs.ROW_CHUNK + 1, 2))
    rows[-1] = [2, 2]
    with pytest.raises(GraphConsistencyError):
        graph_from_rows(rows)


def test_rows_and_degrees_in_index_dtype(sigma2, gamma2):
    # the clique graphs of a perfect matching and of a triangle have no
    # edge: two disjoint cliques, and one clique
    for g in (sigma2.graph, gamma2, from_pairs(3, [(0, 1), (1, 2)]),
              intersection_graph(maximal_cliques(
                  from_pairs(4, [(0, 1), (2, 3)]))),
              intersection_graph(maximal_cliques(
                  from_pairs(3, [(0, 1), (1, 2), (0, 2)])))):
        assert g.rows.dtype == g.degrees().dtype == np.int32
        assert not g.rows.flags.writeable


def test_degrees_of_a_regular_graph_allocate_only_the_result(sigma2,
                                                            peak_alloc):
    # the last column holds no -1, so no whole-table temporary is built
    g = sigma2.graph
    out = []
    assert peak_alloc(lambda: out.append(g.degrees())) <= out[0].nbytes + 512
    assert np.array_equal(out[0], np.full(512, 4))


def test_degrees_of_a_regular_graph_allocate_nothing_per_vertex(sigma2,
                                                               torus64,
                                                               peak_alloc):
    for g, degree in ((sigma2.graph, 4), (torus64, 6)):
        out = []
        assert peak_alloc(lambda: out.append(g.degrees())) <= 512
        assert np.array_equal(out[0], np.full(g.num_vertices, degree))
        assert out[0].dtype == np.int32 and not out[0].flags.writeable


@pytest.mark.parametrize("seed", range(5))
def test_padded_table_of_irregular_graph_matches_lists(seed):
    rng = random.Random(seed)
    nv = rng.randint(2, 30)
    pairs = sorted({tuple(sorted(rng.sample(range(nv), 2)))
                    for _ in range(rng.randint(0, 3 * nv))})
    lists = {v: [] for v in range(nv)}
    for u, v in pairs:
        lists[u].append(v)
        lists[v].append(u)
    width = max(map(len, lists.values()))
    want = [sorted(lists[v]) + [-1] * (width - len(lists[v]))
            for v in range(nv)]
    g = from_pairs(nv, pairs)
    assert g.rows.dtype == np.int32 and g.rows.tolist() == want
    assert g.degrees().tolist() == [len(lists[v]) for v in range(nv)]
    assert all(g.neighbors(v).tolist() == sorted(lists[v])
               for v in range(nv))
    assert list(g.edges()) == pairs and g.num_edges == len(pairs)


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
    nv = rng.randint(48, 160)
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
    assert g.rows[:, -1].min() < 0  # padded
    roots = (order[0], order[cut2], order[-1], rng.randrange(nv))
    # at ROW_CHUNK = 1 the walk lists each layer over spans of 16 ids, so
    # 3 to 10 blocks list it and write its next layer concurrently, each
    # stepping one id at a time; the depth-limited walks step over the
    # same rows as bfs_distances
    for chunk in (graphs.ROW_CHUNK, 1):
        monkeypatch.setattr(graphs, "ROW_CHUNK", chunk)
        for root in roots:
            for depth in (None, 0, 1, 2, 3):
                dist = bfs_distances(g, root) if depth is None \
                    else walk(rows_step(g), nv, [root], depth)
                assert dist.dtype == np.int8  # one byte per id to depth 127
                assert dist.tolist() == deque_bfs(nv, pairs, root, depth), \
                    (chunk, root, depth)


def rows_step(g):
    """The walk step of BFS: a block's rows."""
    return lambda block: np.take(g.rows, block, axis=0)


def path_pairs(nv):
    return [(i, i + 1) for i in range(nv - 1)]


def test_deep_walk_widens_its_distances_once():
    # a path walked from one end is as deep as it is long: past depth 127
    # the int8 record is widened to the index dtype, and stays exact
    nv = 300
    g = from_pairs(nv, path_pairs(nv))
    dist = bfs_distances(g, 0)
    assert dist.dtype == np.int32 and int(dist.max()) == nv - 1
    assert dist.tolist() == deque_bfs(nv, path_pairs(nv), 0, None)
    for depth, dtype in ((127, np.int8), (128, np.int32)):
        dist = walk(rows_step(g), nv, [0], depth)
        assert dist.dtype == dtype and int(dist.max()) == depth
        assert dist.tolist() == deque_bfs(nv, path_pairs(nv), 0, depth)
    # a walk whose last vertex is at depth 127 stays int8: the layer that
    # finds no vertex widens nothing
    dist = bfs_distances(from_pairs(128, path_pairs(128)), 0)
    assert dist.dtype == np.int8 and dist.tolist() == list(range(128))


def torus(side):
    """The 3-dimensional torus of that side: side^3 vertices of degree 6,
    diameter 3 * (side // 2), built as a regular table."""
    v = np.arange(side**3, dtype=np.int32)
    coords = [v // side**k % side for k in range(3)]
    cols = []
    for k in range(3):
        for step in (1, -1):
            moved = list(coords)
            moved[k] = (coords[k] + step) % side
            cols.append(sum(c * side**j for j, c in enumerate(moved)))
    return graph_from_rows(np.sort(np.stack(cols, axis=1), axis=1))


@pytest.fixture(scope="module")
def torus64():
    return torus(64)


def test_bfs_allocates_a_byte_record_per_vertex(torus64, peak_alloc):
    # 2^18 vertices, 97 layers: the int8 record is a byte per vertex, and
    # the frontier mask of a span of 16 * ROW_CHUNK ids a byte per id of
    # the span; the rest is a sub-block's rows, at most ROW_CHUNK of the
    # widest layer, and their index copy per block in flight
    g = torus64
    assert g.num_vertices == 1 << 18
    out = []
    peak = peak_alloc(lambda: out.append(graphs.bfs_layers(g, 0)))
    layers, unreachable = out[0]
    assert unreachable == 0 and len(layers) == 97
    span = min(16 * graphs.ROW_CHUNK, g.num_vertices)
    in_flight = min(graphs.WORKERS, -(-g.num_vertices // span))
    rows = min(max(layers), graphs.ROW_CHUNK) * g.rows.shape[1] \
        * g.rows.itemsize
    assert peak <= g.num_vertices + span + in_flight * 3 * rows


class TextSizes:
    """A text sink that keeps only the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


@pytest.mark.parametrize("workers", [1, graphs.WORKERS])
def test_export_allocates_a_few_runs(monkeypatch, torus64, peak_alloc,
                                     workers):
    # the temporaries of a run are a few copies of its text, and only the
    # runs in flight are alive: nothing grows with the whole graph
    monkeypatch.setattr(graphs, "WORKERS", workers)
    out = TextSizes()
    peak = peak_alloc(lambda: export_graph(torus64, out, "edgelist", n=0,
                                           kind="torus"))
    runs = out.sizes[1:]  # after the header
    assert len(runs) >= 4
    assert peak <= 8 * workers * max(runs)


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
    assert gamma2.rows.dtype == ref.rows.dtype
    assert np.array_equal(gamma2.rows, ref.rows)


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
    # 2^24 vertices needs force; 14 int32 neighbors each
    with pytest.raises(CapExceededError,
                       match="16777216 vertices .*a 939524096-byte"):
        build_gamma(context(3))


def test_sigma_cap():
    # 2^45 vertices, 16 int64 neighbors each: 2^52 bytes
    with pytest.raises(CapExceededError, match="35184372088832 vertices "
                       r"\(> 8388608\), a 4503599627370496-byte"):
        build_sigma(context(4))


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


def test_sigma_stores_its_sides_as_one_integer():
    g = build_sigma(context(2)).graph
    assert g.half == 256
    # the neighbor table is the only per-vertex array the graph holds
    assert [k for k, v in vars(g).items() if isinstance(v, np.ndarray)] \
        == ["rows"]
    assert g.sides.tolist() == [0] * 256 + [1] * 256


def test_coset_graph_stats_count_the_sides_from_the_rows(ctx2, sigma2):
    status, _, actual = check_coset_graph_stats(ctx2, 0, random.Random(0),
                                                {"sigma": sigma2})
    assert (status, actual["halves"]) == ("pass", [256, 256])
    g = sigma2.graph
    rows = g.rows.copy()
    rows[0, 0] = 1  # one entry of X row 0 moved into the X half
    bad = dataclasses.replace(sigma2, graph=dataclasses.replace(g, rows=rows))
    status, _, actual = check_coset_graph_stats(ctx2, 0, random.Random(0),
                                                {"sigma": bad})
    assert (status, actual["halves"]) == ("fail", [255, 256])


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
    assert g.rows.dtype == ref.rows.dtype
    assert np.array_equal(g.rows, ref.rows)
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
    # a corrupted key map gives a fresh context a table tx that is not
    # the group's: derived-quotient-cover compares it with the scalar
    # coset_vertex, and the witness reads the edge ends of every element
    # through the key maps.  Collapsing keys 0 and 1 also repeats a
    # neighbor in the X row of the identity, which the build refuses; a
    # swap keeps every row strictly increasing and both sides one table
    original = PackedOps.y_coset_key
    monkeypatch.setattr(PackedOps, "y_coset_key",
                        lambda self, z: corrupt(original(self, z)))
    got = {c.name: c for c in run_suite(2, "all").checks}
    assert got["derived-quotient-cover"].status == "fail"
    assert got["derived-quotient-cover"].actual["table_mismatches"] > 0
    assert got["edge-regular-action"].status == "fail"
    if corrupt is _collapse_one_to_zero:
        with pytest.raises(GraphConsistencyError, match="repeated neighbor"):
            build_sigma(context(2))
    else:
        assert build_sigma(context(2)).row_mismatches == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coset_rows_match_per_element_keys(n):
    # the table form against the key maps run on every member (left_mul
    # gives the Y cosets' members y^c * rep): each key at n=2 and 3,
    # 2^12 random keys per side at n=4 and 5
    ctx = context(n)
    ops = packed_ops(ctx)
    half = graphs._half(ctx)
    if n <= 3:
        keys = np.arange(half, dtype=ops.dtype)
    else:
        rng = random.Random(n)
        keys = np.array([rng.randrange(half) for _ in range(1 << 12)],
                        dtype=ops.dtype)
    members = (keys[:, None] << ops.sn) | np.arange(1 << n, dtype=ops.dtype)
    assert np.array_equal(coset_rows(ctx, "X", keys),
                          np.sort(ops.y_coset_key(members), axis=1))
    rep = ctx.y_rep(keys)
    members = np.stack([ops.left_mul(Element(b=c), rep)
                        for c in range(1 << n)], axis=1)
    assert np.array_equal(coset_rows(ctx, "Y", keys),
                          np.sort(ops.x_coset_key(members), axis=1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coset_row_tables_transpose(n):
    # both sides read the one table tx, so the Y row of every entry r of
    # X row k holds k: every X key at n=2, 2^8 random ones above
    ctx = context(n)
    ops = packed_ops(ctx)
    half = graphs._half(ctx)
    if n == 2:
        keys = np.arange(half, dtype=ops.dtype)
    else:
        rng = random.Random(n)
        keys = np.array([rng.randrange(half) for _ in range(1 << 8)],
                        dtype=ops.dtype)
    xrows = coset_rows(ctx, "X", keys)
    yrows = coset_rows(ctx, "Y", xrows.ravel()).reshape(*xrows.shape, -1)
    assert (yrows == keys[:, None, None]).any(axis=2).all()


@pytest.mark.parametrize("table, entry", [("tx", (1, 2)), ("tx", (1, 3))])
def test_sigma_rejects_corrupted_row_table(monkeypatch, table, entry):
    # one flipped fibre bit of one entry of the one table moves a key in
    # the X rows of class 1 and in the Y rows of class 2 or 3, both
    # sides alike, so the build and the row count accept it; the suite
    # of a fresh context holding the table fails derived-quotient-cover,
    # which compares every entry with the scalar coset_vertex
    ctx = context(2)
    ops = packed_ops(ctx)
    bad = getattr(ops, table).copy()
    bad[entry] ^= np.uint32(1 << 2)
    setattr(ops, table, bad)
    assert build_sigma(ctx).row_mismatches == 0
    monkeypatch.setattr(verify, "context",
                        lambda n: ctx if n == 2 else context(n))
    got = {c.name: c for c in run_suite(2, "all").checks}
    assert got["derived-quotient-cover"].status == "fail"
    assert got["derived-quotient-cover"].actual["table_mismatches"] == 1


@pytest.mark.parametrize("n", [2, 3])
def test_y_coset_paths_match_general_product(n):
    # y_coset_key and left_mul read yx alone; each is compared with the
    # general product, which reads phi too: every element and key at
    # n=2, 2^20 random ones at n=3
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
    rep = ctx.y_rep(keys)
    for c in range(1 << n):
        want = ops.mul(np.full_like(rep, ctx.pack(Element(b=c))), rep)
        assert np.array_equal(ops.left_mul(Element(b=c), rep), want)


def test_sigma_row_blocks_match_default_build(monkeypatch, sigma2):
    # 7 does not divide the 256 cosets per side: the last X and Y blocks
    # are partial
    monkeypatch.setattr(graphs, "ROW_CHUNK", 7)
    blocked = build_sigma(context(2))
    for got, want in ((blocked.graph.rows, sigma2.graph.rows),
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
    assert g.rows.shape == (0, 0)


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

    def counted(ctx):
        calls["quotient_by_derived"] += 1
        return real(ctx)

    monkeypatch.setattr(graphs, "quotient_by_derived", counted)
    report = run_suite(2, "graphs")
    status = {c.name: c.status for c in report.checks}
    assert status["derived-quotient-cover"] == "pass"
    assert status["export-roundtrip"] == "pass"
    assert calls == {"quotient_by_derived": 1}


def test_export_roundtrip_sees_a_moved_edge(monkeypatch):
    # a writer that prints the quotient's edge 0-4 as 1-4, in the edge list
    # and in the dot text, keeps every count of the export
    real = graphs._write_edges

    def moved(g, out, literals):
        buf = io.StringIO()
        real(g, buf, literals)
        first, sep, end = literals
        edge, wrong = f"{first}0{sep}4{end}", f"{first}1{sep}4{end}"
        assert buf.getvalue().startswith(edge)
        out.write(buf.getvalue().replace(edge, wrong, 1))

    monkeypatch.setattr(graphs, "_write_edges", moved)
    check = {c.name: c for c in run_suite(2, "graphs").checks}
    roundtrip = check["export-roundtrip"]
    assert roundtrip.status == "fail"
    assert roundtrip.actual == {"deterministic": True,
                                "edgelist_roundtrip": False, "dot_edges": 15}
    assert check["derived-quotient-cover"].status == "pass"


def test_quotient_is_k44(ctx2):
    q = quotient_by_derived(ctx2)
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
    q = quotient_by_derived(ctx2)
    assert q.num_edges == ref.num_edges == 16
    assert np.array_equal(q.rows, ref.rows)
    assert q.sides.tolist() == [0] * 4 + [1] * 4


def _edge_bijection(ctx, sigma):
    return check_edge_bijection(ctx, 200, random.Random(0), {"sigma": sigma})


def test_edge_bijection_rejects_corrupted_sigma(ctx2, sigma2):
    g = sigma2.graph
    rows = g.rows.copy()
    # X vertex 0 trades one neighbor for a Y vertex of another class
    rows[0, 0] ^= 1
    bad = dataclasses.replace(sigma2, graph=dataclasses.replace(g, rows=rows))
    assert _edge_bijection(ctx2, sigma2)[0] == "pass"
    assert _edge_bijection(ctx2, bad)[0] == "fail"


def test_edge_bijection_rejects_a_class_pair_with_no_edge(ctx2, sigma2):
    g = sigma2.graph
    rows = g.rows.copy()
    # X class 0 (keys with low bits 0) sends its Y class 1 neighbors to
    # Y class 2, so the class pair (0, 1) has no edge
    x0 = rows[:sigma2.half:4]
    x0[x0 & 3 == 1] ^= 3
    bad = dataclasses.replace(sigma2, graph=dataclasses.replace(g, rows=rows))
    assert _edge_bijection(ctx2, bad) == \
        ("fail", "phi(z) = {X-coset(z), Y-coset(z)}", "mismatch")


def _quotient_cover(ctx):
    return check_quotient_cover(ctx, 1, random.Random(0), {})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quotient_cover_at_every_rank(n):
    # the claim is read off the 2^n x 2^n tables: no coset graph is built;
    # the cycles span the derived subgroup, of rank n^2 (n + 1) / 2
    status, _, act = _quotient_cover(context(n))
    assert status == "pass" and act["cycle_rank"] == n * n * (n + 1) // 2


def test_voltages_are_the_high_bits_of_the_y_keys(ctx2):
    tx = packed_ops(ctx2).tx
    zeta = graphs.voltages(ctx2)
    assert zeta.shape == (4, 4)
    assert np.array_equal(zeta << 2 | (tx & 3), tx)
    # X vertex (b, v), key b | v << n, meets Y vertex (a, v ^ zeta[b, a])
    keys = np.arange(64, dtype=np.uint32)
    for b in range(4):
        rows = coset_rows(ctx2, "X", keys << 2 | b)
        want = np.sort((keys[:, None] ^ zeta[b]) << 2 | np.arange(4), axis=1)
        assert np.array_equal(rows, want)


def test_quotient_cover_sees_one_flipped_voltage_bit():
    # a fresh context, so that the edited table is its own
    ctx = GroupContext(2)
    ops = packed_ops(ctx)
    assert _quotient_cover(ctx)[0] == "pass"
    ops.tx = ops.tx.copy()
    ops.tx[2, 1] ^= np.uint32(1 << ctx.n)  # a bit of the voltage, not class
    status, _, act = _quotient_cover(ctx)
    assert status == "fail"
    assert act["table_mismatches"] == 1 and act["class_mismatches"] == 0


def test_quotient_cover_fails_on_trivial_voltages(monkeypatch):
    # voltages whose fundamental cycles are all 0: a disconnected cover
    monkeypatch.setattr(graphs, "voltages", lambda ctx: np.zeros(
        (1 << ctx.n, 1 << ctx.n), dtype=packed_ops(ctx).dtype))
    status, exp, act = _quotient_cover(context(2))
    assert status == "fail"
    assert exp["cycle_rank"] == 6 and act["cycle_rank"] == 0


def _derived_graph(ctx, zeta):
    """The derived graph of K_{2^n,2^n} over these voltages, built edge by
    edge: X vertex (b, v) meets Y vertex (a, v ^ zeta[b, a])."""
    n, half = ctx.n, 1 << (ctx.total_bits - ctx.n)
    v = np.arange(half >> n, dtype=np.int64)[:, None, None]
    b, a = np.arange(1 << n)[:, None], np.arange(1 << n)
    zeta = zeta.astype(np.int64)
    x = np.broadcast_to(v << n | b, (len(v), 1 << n, 1 << n))
    y = half + ((v ^ zeta) << n | a)
    return graph_from_edges(2 * half, x.ravel(), y.ravel())


def test_cycle_rank_agrees_with_connectivity_off_the_family(ctx2, sigma2,
                                                            monkeypatch):
    # the derived graph of the true voltages is sigma(2), which is
    # connected; with the top voltage bit cleared, the cycles span half of
    # Z_2^6 and it splits
    zeta = graphs.voltages(ctx2)
    assert np.array_equal(_derived_graph(ctx2, zeta).rows, sigma2.graph.rows)
    assert _quotient_cover(ctx2)[2]["cycle_rank"] == 6
    assert is_connected(sigma2.graph)
    low = zeta & np.uint32(31)
    monkeypatch.setattr(graphs, "voltages", lambda ctx: low)
    assert _quotient_cover(ctx2)[2]["cycle_rank"] == 5
    assert not is_connected(_derived_graph(ctx2, low))

# -- export -------------------------------------------------------------------------------

def test_export_edgelist_header_and_content(ctx2):
    q = quotient_by_derived(ctx2)
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


def test_export_dot_roundtrip(ctx2):
    import re
    q = quotient_by_derived(ctx2)
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


def test_export_deterministic(ctx2):
    q = quotient_by_derived(ctx2)
    a, b = io.StringIO(), io.StringIO()
    export_graph(q, a, "edgelist", n=2, kind="quotient")
    export_graph(q, b, "edgelist", n=2, kind="quotient")
    assert a.getvalue() == b.getvalue()


def test_export_unknown_format(ctx2, sigma2):
    with pytest.raises(ValueError):
        export_graph(sigma2.graph, io.StringIO(), "gml")


def reference_export(g, fmt, n, kind):
    """The export written one f-string per edge, from the neighbor rows."""
    edges = [(u, int(v)) for u in range(g.num_vertices)
             for v in g.neighbors(u) if u < v]
    if fmt == "edgelist":
        lines = [f"# hn-graph n={n} kind={kind} "
                 f"vertices={g.num_vertices} edges={g.num_edges}\n"]
        lines += [f"{u} {v}\n" for u, v in edges]
    else:
        lines = ["graph {\n"]
        lines += [f"  {v};\n" for v in range(g.num_vertices)
                  if len(g.neighbors(v)) == 0]
        lines += [f"  {u} -- {v};\n" for u, v in edges]
        lines.append("}\n")
    return "".join(lines)


def _family_graph(kind, ctx2, sigma2, gamma2):
    if kind == "sigma":
        return sigma2.graph
    if kind == "gamma":
        return gamma2
    if kind == "quotient":
        return quotient_by_derived(ctx2)
    return line_graph(sigma2.graph)


@pytest.mark.parametrize("chunk", [
    pytest.param(graphs.EXPORT_CHUNK, id="default"), 3])
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


@pytest.mark.parametrize("chunk", [
    pytest.param(graphs.EXPORT_CHUNK, id="default"), 1])
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
def test_export_text_does_not_depend_on_the_run_size(monkeypatch, sigma2,
                                                     fmt):
    # runs of one row, of 7 entries and the default: Sigma_2 and a padded
    # irregular graph (the hand graph's rows end in -1) write the same text
    hand = from_pairs(102, HAND_PAIRS)
    assert hand.rows[:, -1].min() < 0
    for g in (sigma2.graph, hand):
        texts = set()
        for chunk in (1, 7, graphs.EXPORT_CHUNK):
            monkeypatch.setattr(graphs, "EXPORT_CHUNK", chunk)
            buf = io.StringIO()
            export_graph(g, buf, fmt, n=2, kind="test")
            texts.add(buf.getvalue())
        assert texts == {reference_export(g, fmt, 2, "test")}


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


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("edge", [999, 9999, 99999999, 10**12 - 1,
                                  2**32 - 1])
def test_format_lines_at_digit_group_edges(edge, wide):
    # each side of a 4-digit group boundary, alone and together, so a value
    # fills its field or stops one digit short of it; uint32 digits unless
    # a value reaches 2^32, and uint64 ones in a column that also holds
    # 2^40, where the same values sit padded in a 13-digit field
    extra = [2**40] if wide else []
    for values in ([edge], [edge + 1], [edge, edge + 1], [edge + 1, edge]):
        values = values + extra
        u = np.array(values, dtype=np.int64)
        v = u[::-1].copy()
        want = "".join(f"{a} {b}\n" for a, b in zip(values, values[::-1]))
        assert graphs._format_lines(("", " ", "\n"), u, v) == want
        assert graphs._format_lines(("<", ">"), u) == "".join(
            f"<{a}>" for a in values)


@pytest.mark.parametrize("literals", [("", "\n"), ("", " ", "\n"),
                                      ("", "", ";")])
@pytest.mark.parametrize("digits", [1, 2, 3])
def test_format_lines_short_fields_stay_in_their_line(literals, digits):
    # fields of 1-3 digits, the last one followed by a single byte: a
    # 4-byte word stored there would reach past a run of one row and, in a
    # longer run, overwrite the start of the next line
    values = [v for v in (0, 7, 10, 42, 99, 100, 512, 999) if v < 10**digits]
    rows = [(a, b) for a in values for b in values][::3]
    for run in [rows, *([row] for row in rows)]:
        run = [row[:len(literals) - 1] for row in run]
        cols = [np.array(col, dtype=np.int64) for col in zip(*run)]
        want = "".join(
            "".join(f"{lit}{x}" for lit, x in zip(literals, row)) + literals[-1]
            for row in run)
        assert graphs._format_lines(literals, *cols) == want


def test_digit_words_are_the_four_digit_strings():
    assert graphs._DIGIT_WORDS.dtype == np.dtype("<u4")
    assert graphs._DIGIT_WORDS.tobytes() == "".join(
        f"{i:04d}" for i in range(10000)).encode()


def test_export_empty_graph():
    g = from_pairs(2, [])
    for fmt in ("edgelist", "dot"):
        buf = io.StringIO()
        export_graph(g, buf, fmt, n=2, kind="empty")
        assert buf.getvalue() == reference_export(g, fmt, 2, "empty")


# -- the row-block runner ------------------------------------------------------

@pytest.mark.runner
def test_in_blocks_yields_in_item_order():
    items = list(range(40))
    assert list(graphs.in_blocks(lambda i: i * i, items)) == [
        i * i for i in items]
    assert list(graphs.in_blocks(str, [])) == []


@pytest.mark.runner
def test_in_blocks_stops_at_the_first_false_in_order():
    calls = []

    def block(i):
        calls.append(i)
        return i != 10

    assert not all(graphs.in_blocks(block, range(200)))
    # blocks past the failing one start only while it is in flight
    assert set(range(11)) <= set(calls) <= set(range(11 + graphs.WORKERS))


@pytest.mark.runner
def test_bfs_in_small_blocks_matches_default_chunks(monkeypatch, sigma2,
                                                   gamma2):
    # spans of 16 * 7 ids, stepped 7 frontier ids at a time, split each
    # BFS layer into 5 (sigma) or 10 (gamma) blocks on the pool: BFS from
    # every 9th root (both sides of sigma), at every depth from every 99th,
    # as at the default chunk (the build and the exports in small blocks
    # are compared by test_sigma_row_blocks_match_default_build and
    # test_export_matches_per_edge_reference)
    def runs(g):
        for root in range(0, g.num_vertices, 9):
            yield bfs_distances(g, root)
            if root % 99 == 0:
                yield from (walk(rows_step(g), g.num_vertices, [root], depth)
                            for depth in range(11))

    want = [list(runs(g)) for g in (sigma2.graph, gamma2)]
    monkeypatch.setattr(graphs, "ROW_CHUNK", 7)
    for g, want_g in zip((sigma2.graph, gamma2), want):
        got = list(runs(g))
        assert len(got) == len(want_g)
        assert all(np.array_equal(a, b) for a, b in zip(got, want_g))


@pytest.mark.runner
def test_runner_stress_more_workers_than_cores(monkeypatch, ctx2, sigma2):
    # 8 workers switching every microsecond: never more than 8 blocks in
    # flight, results in order, and the build and the BFS records of
    # blocks of 3 rows as at the defaults
    want_bfs = [bfs_distances(sigma2.graph, root) for root in (0, 300)]
    monkeypatch.setattr(graphs, "WORKERS", 8)
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
        assert np.array_equal(built.rows, sigma2.graph.rows)
        for root, want in zip((0, 300), want_bfs):
            assert np.array_equal(bfs_distances(sigma2.graph, root), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.runner
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


@pytest.mark.parametrize("has_mallopt", [True, False])
@pytest.mark.runner
def test_pool_sets_malloc_before_its_threads_start(monkeypatch, has_mallopt):
    # a fake libc records each mallopt call with the threads alive then;
    # each loop of several blocks makes the three calls first, then on two
    # workers its pool and on one none, and a libc without mallopt (not
    # glibc) still gets its pools
    import ctypes
    from concurrent import futures
    events = []

    def mallopt(param, value):
        events.append((param, value, threading.active_count()))
        return 1

    libc = SimpleNamespace(mallopt=mallopt) if has_mallopt else \
        SimpleNamespace()
    real_pool = futures.ThreadPoolExecutor

    def pool(*args, **kwargs):
        events.append("pool")
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", pool)
    threads = threading.active_count()
    calls = [(graphs.M_ARENA_MAX, 1, threads),
             (graphs.M_MMAP_THRESHOLD, 32 << 20, threads),
             (graphs.M_TRIM_THRESHOLD, 128 << 20, threads)]
    for workers in (2, 1):
        monkeypatch.setattr(graphs, "WORKERS", workers)
        events.clear()
        for _ in range(2):
            assert list(graphs.in_blocks(abs, [-1, -2, -3])) == [1, 2, 3]
        assert list(graphs.in_blocks(abs, [-4])) == [4]  # no call
        pools = ["pool"] if workers > 1 else []
        assert events == 2 * ((calls if has_mallopt else []) + pools)
    assert (graphs.M_TRIM_THRESHOLD, graphs.M_MMAP_THRESHOLD,
            graphs.M_ARENA_MAX) == (-1, -3, -8)


@pytest.mark.runner
def test_suite_report_ignores_row_blocks_and_workers(monkeypatch):
    # ROW_CHUNK and WORKERS set speed only: at blocks of 7 rows (and 7
    # samples past each battery's 256 cross-checked ones) or at the
    # default, on one worker or two, the rank-2 suite passes every check
    # with the same report
    reports = set()
    for chunk in (7, graphs.ROW_CHUNK):
        for workers in (1, 2):
            monkeypatch.setattr(graphs, "ROW_CHUNK", chunk)
            monkeypatch.setattr(graphs, "WORKERS", workers)
            report = run_suite(2, "all", samples=300, seed=5)
            assert report.summary == {"fail": 0, "inconclusive": 0,
                                      "pass": 46, "skip": 0}
            reports.add(report.to_json())
    assert len(reports) == 1


@pytest.mark.runner
def test_rank2_suite_starts_no_thread():
    # every rank-2 loop is one block, so it runs inline: with two workers
    # allowed, the whole suite makes no pool and ends on the main thread
    code = ("import threading\n"
            "from concurrent import futures\n"
            "from mixdih import graphs\n"
            "from mixdih.verify import run_suite\n"
            "pools, real_pool = [], futures.ThreadPoolExecutor\n"
            "futures.ThreadPoolExecutor = lambda *args, **kwargs: ("
            "pools.append(1) or real_pool(*args, **kwargs))\n"
            "graphs.WORKERS = 2\n"
            "assert run_suite(2, 'all').overall == 'pass'\n"
            "print(len(pools), threading.active_count())\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def row_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith("mixdih-rows")]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.runner
def test_forked_child_starts_its_own_pool(monkeypatch):
    # a child forked after a loop ran on its pool has none of its threads,
    # and its own loops still run on row threads
    monkeypatch.setattr(graphs, "WORKERS", 2)

    def block(i):
        return abs(i), threading.current_thread().name

    assert [r for r, _ in graphs.in_blocks(block, [-1, -2])] == [1, 2]
    pid = os.fork()
    if pid == 0:
        signal.alarm(60)  # a child waiting on the parent's threads dies
        got = list(graphs.in_blocks(block, [-3, -4]))
        ok = [r for r, _ in got] == [3, 4] and all(
            name.startswith("mixdih-rows") for _, name in got)
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.runner
def test_loop_threads_end_with_the_loop(monkeypatch):
    # the pool's threads run while a loop does and are joined when it
    # ends, whether it runs out or all() leaves it at its first False
    monkeypatch.setattr(graphs, "WORKERS", 3)
    seen = []

    def block(i):
        seen.append(len(row_threads()))
        time.sleep(0.001)
        return i != 10

    assert row_threads() == []
    assert all(graphs.in_blocks(block, range(10)))
    assert max(seen) >= 1 and row_threads() == []
    seen.clear()
    assert not all(graphs.in_blocks(block, range(200)))
    assert max(seen) >= 1 and len(seen) < 200 and row_threads() == []


@pytest.mark.runner
def test_a_block_may_run_its_own_loop(monkeypatch):
    # an inner loop gets its own pool, so an outer block waits on no
    # thread of its own loop; the whole nest runs under a time limit
    monkeypatch.setattr(graphs, "WORKERS", 2)

    def outer(i):
        return sum(graphs.in_blocks(abs, range(-i, 0)))

    got = []
    nest = threading.Thread(target=lambda: got.append(
        list(graphs.in_blocks(outer, range(2, 10)))), daemon=True)
    nest.start()
    nest.join(timeout=60)
    assert not nest.is_alive()
    assert got == [[i * (i + 1) // 2 for i in range(2, 10)]]
    assert row_threads() == []
