"""Symmetry machinery for the coset graph: the two vertex actions (right
multiplication by group elements and the GL x GL generator automorphisms),
orbit closure, the local 2-arc-transitivity check, BFS distance diagrams,
coarsest equitable refinement, the radius-4 ball identity in the Cayley
graph, and the semisymmetry certificate.

Each shared graph algorithm has one implementation.  BFS is
``graphs.bfs_distances`` (``graphs.bfs_layers`` counts its layers).  This
module owns the other three: ``color_refinement`` (behind
``equitable_refinement`` and the individualization-refinement search in
``autgroup``), ``orbits`` and the automorphism predicate
``is_graph_automorphism``.

Vertex intransitivity is certified by a side-separating invariant (the BFS
layer profile) rather than a full automorphism search: an automorphism
mapping one side to the other would transport layer profiles, and the
group acts transitively on each side, so differing profiles at the two
base vertices rule such a map out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bulk import packed_ops
from .graphs import (
    CosetVertex,
    GraphData,
    Sigma,
    bfs_distances,
    bfs_layers,
    canonical_coset,
    connection_set,
)
from .group import (
    Element,
    GroupContext,
    IDENTITY,
    InducedAutomorphism,
    gf2_identity,
    gl_generators,
    induced_automorphism,
    mul,
    xgen,
    ygen,
)

VertexPermutation = np.ndarray


# -- vertex actions -----------------------------------------------------------

def right_action(ctx: GroupContext, sigma: Sigma, h: Element) -> VertexPermutation:
    """Vertex permutation of the coset graph from right multiplication by h.

    Sends each coset to the coset of rep*h; preserves sides, and is an
    automorphism (the edge through z maps to the edge through z*h).
    """
    ops = packed_ops(ctx)
    half = sigma.half
    n = np.uint32(ctx.n)
    hk = np.uint32(ctx.pack(h))
    keys = np.arange(half, dtype=np.uint32)  # both sides have half keys
    perm_x = ops.x_coset_key(ops.mul(keys << n, hk))
    perm_y = ops.y_coset_key(ops.mul(ops.y_rep(keys), hk)).astype(np.int64)
    return np.concatenate([perm_x.astype(np.int64), perm_y + half])


def gl_action(ctx: GroupContext, sigma: Sigma,
              aut: InducedAutomorphism) -> VertexPermutation:
    """Vertex permutation from an induced automorphism (fixes the two base
    vertices and the side partition)."""
    half = sigma.half
    perm = np.empty(sigma.graph.num_vertices, dtype=np.int64)
    for vid in range(sigma.graph.num_vertices):
        side = "X" if vid < half else "Y"
        img = canonical_coset(ctx, side, aut.apply(sigma.rep_of(vid)))
        perm[vid] = sigma.vid_of(side, img.rep)
    return perm


def is_permutation(perm: VertexPermutation) -> bool:
    return bool(np.array_equal(np.sort(perm), np.arange(len(perm))))


def is_graph_automorphism(g: GraphData, perm: VertexPermutation) -> bool:
    """Adjacency preservation tested on all edges: the sorted image edge
    keys must equal the edge keys, which the CSR order already sorts."""
    if len(perm) != g.num_vertices or not is_permutation(perm):
        return False
    eu, ev = g.edge_array()
    pu, pv = perm[eu], perm[ev]
    nv = np.int64(g.num_vertices)
    img = np.sort(np.minimum(pu, pv) * nv + np.maximum(pu, pv))
    return bool(np.array_equal(eu * nv + ev, img))


def compose(p: VertexPermutation, q: VertexPermutation) -> VertexPermutation:
    """Apply p first, then q (matches acting on the right)."""
    return q[p]


# -- orbits ---------------------------------------------------------------------

def orbits(perms: Sequence[np.ndarray],
           points: Iterable[int]) -> list[list[int]]:
    """Orbits through the given points under the group generated by the
    permutation arrays, in order of first point, each sorted.

    Min-label propagation: every point x and its image p[x] hook the larger
    of their labels onto the smaller, then pointer jumping flattens the
    labels, until each orbit carries its least point as label.
    """
    points = np.asarray(points, dtype=np.int64)
    size = len(perms[0]) if len(perms) else int(points.max(initial=-1)) + 1
    label = np.arange(size)
    while True:
        before = label.copy()
        for p in perms:
            a, b = label, label[p]
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(label[label], label):
            label = label[label]
        if np.array_equal(label, before):
            break
    roots = label[points]
    _, first = np.unique(roots, return_index=True)
    order = np.argsort(label, kind="stable")
    ranked = label[order]
    wanted = roots[np.sort(first)]
    lo = np.searchsorted(ranked, wanted, "left")
    hi = np.searchsorted(ranked, wanted, "right")
    return [order[a:b].tolist() for a, b in zip(lo, hi)]


# -- local 2-arc machinery ---------------------------------------------------

def _vertex_token(ctx: GroupContext, cv: CosetVertex) -> tuple[str, int]:
    return (cv.side, ctx.pack(cv.rep))

def _token_vertex(ctx: GroupContext, tok: tuple[str, int]) -> CosetVertex:
    return CosetVertex(tok[0], ctx.unpack(tok[1]))


def coset_neighbors(ctx: GroupContext, cv: CosetVertex) -> list[CosetVertex]:
    """Neighbors of a coset vertex, computed locally from the group.

    The edges through the coset of z are indexed by its members, so the
    neighbors of an X-side coset are the Y-cosets of its 2^n members and
    vice versa.
    """
    other = "Y" if cv.side == "X" else "X"
    out = []
    for c in range(1 << ctx.n):
        member = mul(ctx, Element(a=c) if cv.side == "X" else Element(b=c),
                     cv.rep)
        out.append(canonical_coset(ctx, other, member))
    return out


@dataclass(frozen=True, order=True)
class TwoArc:
    """(u, v, w) with u != w and both pairs adjacent."""

    u: tuple[str, int]
    v: tuple[str, int]
    w: tuple[str, int]


def _stabilizer_maps(ctx: GroupContext, side: str) -> list[Callable]:
    """Generator maps for the stabilizer of the base vertex of a side:
    right multiplications by that side's generators plus the GL x GL
    generator pairs (two standard generators per factor)."""
    maps: list[Callable] = []

    def right_mult_map(g: Element) -> Callable:
        def act(tok):
            cv = _token_vertex(ctx, tok)
            img = canonical_coset(ctx, cv.side, mul(ctx, cv.rep, g))
            return _vertex_token(ctx, img)
        return act

    def aut_map(aut: InducedAutomorphism) -> Callable:
        def act(tok):
            cv = _token_vertex(ctx, tok)
            img = canonical_coset(ctx, cv.side, aut.apply(cv.rep))
            return _vertex_token(ctx, img)
        return act

    gens = [xgen(ctx, i) for i in range(1, ctx.n + 1)] if side == "X" \
        else [ygen(ctx, j) for j in range(1, ctx.n + 1)]
    maps.extend(right_mult_map(g) for g in gens)
    ident = gf2_identity(ctx.n)
    for mat in gl_generators(ctx.n):
        maps.append(aut_map(induced_automorphism(ctx, mat, ident)))
        maps.append(aut_map(induced_automorphism(ctx, ident, mat)))
    return maps


def rooted_two_arcs(ctx: GroupContext, side: str) -> list[TwoArc]:
    """All 2-arcs starting at the base vertex of the given side."""
    root = canonical_coset(ctx, side, IDENTITY)
    root_tok = _vertex_token(ctx, root)
    arcs = []
    for v in coset_neighbors(ctx, root):
        v_tok = _vertex_token(ctx, v)
        for w in coset_neighbors(ctx, v):
            w_tok = _vertex_token(ctx, w)
            if w_tok != root_tok:
                arcs.append(TwoArc(root_tok, v_tok, w_tok))
    return arcs


def check_local_2at(ctx: GroupContext, use_gl: bool = True) -> dict:
    """Transitivity of the base-vertex stabilizers on rooted 2-arcs.

    The stabilizer generators (right multiplications by the side's
    subgroup, plus the GL x GL pairs) act on the 2-arcs rooted at the base
    vertex of each side; the check passes iff each side yields a single
    orbit.  Vertex transitivity of the group on each side then certifies
    local 2-arc-transitivity at every root.  The computation is local and
    does not need the full graph (use_gl=False exists for mutation tests).
    """
    report: dict = {"n": ctx.n, "sides": {}}
    ok = True
    for side in ("X", "Y"):
        arcs = rooted_two_arcs(ctx, side)
        maps = _stabilizer_maps(ctx, side)
        if not use_gl:
            maps = maps[:ctx.n]
        # a KeyError here means a generator moved the root
        index = {arc: i for i, arc in enumerate(arcs)}
        perms = [np.array([index[TwoArc(m(a.u), m(a.v), m(a.w))]
                           for a in arcs]) for m in maps]
        parts = orbits(perms, range(len(arcs)))
        expected = (1 << ctx.n) * ((1 << ctx.n) - 1)
        report["sides"][side] = {
            "two_arcs": len(arcs),
            "expected_two_arcs": expected,
            "orbits": len(parts),
            "pass": len(parts) == 1 and len(arcs) == expected,
        }
        ok = ok and report["sides"][side]["pass"]
    report["pass"] = ok
    return report


# -- distance diagrams -----------------------------------------------------------

@dataclass
class DistanceDiagram:
    """BFS layer sizes from a root, optionally with refined cells."""

    root_label: str
    layers: list[int]
    unreachable: int = 0
    cells: list[list[int]] | None = None          # per distance: cell sizes
    cell_edges: list | None = None                # (d, i, d', j, count) rows


def distance_layers(g: GraphData, root: int,
                    root_label: str | None = None) -> DistanceDiagram:
    layers, unreachable = bfs_layers(g, root)
    return DistanceDiagram(root_label or str(root), layers, unreachable)


# -- equitable refinement ----------------------------------------------------------

@dataclass
class EquitablePartition:
    """Coarsest equitable partition refining a seed, with edge counts.

    cells[i] is a sorted vertex array; counts[i][j] is the number of
    neighbors in cell j of any vertex of cell i (well-defined at the
    fixed point, and verified).
    """

    cells: list[np.ndarray]
    counts: list[list[int]]
    cell_of: np.ndarray


def _neighbor_colors(nb: np.ndarray, colors: np.ndarray,
                     ncol: int) -> np.ndarray:
    """Each vertex's neighbor colors sorted ascending, padding (ncol) last."""
    nbc = colors[nb]
    nbc[nb < 0] = ncol
    nbc.sort(axis=1)
    return nbc


def color_refinement(nb: np.ndarray,
                     colors: np.ndarray) -> tuple[np.ndarray, int]:
    """Stable coloring of 1-dimensional refinement on a padded neighbor
    table (``GraphData.neighbor_table``), with the number of colors.

    Each round re-ranks the vertices by (color, negated sorted neighbor
    colors).  A vertex with more neighbors of the first color where two
    count vectors differ has the larger negated entry there, so the new
    colors follow sorted (old color, neighbor-count vector) pairs.  Colors
    must be 0..k-1; a stable input comes back unchanged.
    """
    ncol = int(colors.max()) + 1
    while True:
        sig = np.column_stack([colors, -_neighbor_colors(nb, colors, ncol)])
        # dense rank of the rows in lexicographic order
        order = np.lexsort(sig.T[::-1])
        ranked = sig[order]
        step = np.any(ranked[1:] != ranked[:-1], axis=1)
        new = np.empty(len(sig), dtype=np.int64)
        new[order] = np.concatenate([[0], np.cumsum(step)])
        nnew = int(new.max()) + 1
        if nnew == ncol:
            return new, nnew
        colors, ncol = new, nnew


def equitable_refinement(g: GraphData,
                         seed: Sequence[Sequence[int]]) -> EquitablePartition:
    """Coarsest equitable refinement of the seed partition.

    New cell ids are assigned by sorting (old cell id, count signature),
    which makes diagrams reproducible.
    """
    nv = g.num_vertices
    seed_cells = [np.asarray(c, dtype=np.int64) for c in seed]
    flat = np.concatenate(seed_cells) if seed_cells else np.zeros(0, int)
    color = np.full(nv, -1, dtype=np.int64)
    color[flat] = np.repeat(np.arange(len(seed_cells)),
                            [len(c) for c in seed_cells])
    if len(flat) != nv or np.any(color < 0):
        raise ValueError("seed cells must partition the vertices")

    nb = g.neighbor_table()
    color, ncol = color_refinement(nb, color)
    nbc = _neighbor_colors(nb, color, ncol)
    first = np.unique(color, return_index=True)[1]
    if not np.array_equal(nbc, nbc[first][color]):
        raise RuntimeError("refinement fixed point is not equitable")
    rows = nbc[first]
    real = rows < ncol
    counts = np.bincount(
        (np.arange(ncol)[:, None] * ncol + rows)[real],
        minlength=ncol * ncol).reshape(ncol, ncol)
    cells = np.split(np.argsort(color, kind="stable"),
                     np.cumsum(np.bincount(color, minlength=ncol))[:-1])
    return EquitablePartition(cells, counts.tolist(), color)


def refined_diagram(g: GraphData, root: int,
                    root_label: str | None = None) -> DistanceDiagram:
    """Distance diagram with the distance partition refined equitably."""
    dist = bfs_distances(g, root)
    ndist = int(dist.max()) + 1
    part = equitable_refinement(
        g, [np.flatnonzero(dist == d) for d in range(ndist)])
    cell_dist = [int(dist[cell[0]]) for cell in part.cells]
    cells_per_layer: list[list[int]] = [[] for _ in range(ndist)]
    for d, cell in zip(cell_dist, part.cells):
        cells_per_layer[d].append(len(cell))
    rows = []
    for i, row in enumerate(part.counts):
        for j, cnt in enumerate(row):
            if cnt:
                rows.append((cell_dist[i], len(part.cells[i]),
                             cell_dist[j], len(part.cells[j]), cnt))
    return DistanceDiagram(root_label or str(root),
                           [sum(sizes) for sizes in cells_per_layer], 0,
                           cells_per_layer, rows)


# -- ball identity ------------------------------------------------------------------

def ball_intersect_derived(ctx: GroupContext, radius: int,
                           gamma: GraphData | None = None) -> list[Element]:
    """Elements of the derived subgroup within the given Cayley-ball radius
    of the identity.

    Uses the shared BFS on a prebuilt Cayley graph; without one it grows
    the ball lazily from the group as B_r = B_{r-1} u S B_{r-1} (the
    radius-4 ball is tiny compared to the group).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if gamma is not None:
        ball = np.flatnonzero(bfs_distances(gamma, 0, radius) >= 0)
    else:
        ops = packed_ops(ctx)
        ball = np.zeros(1, dtype=np.uint32)
        s_list = connection_set(ctx)
        for _ in range(radius):
            ball = np.unique(np.concatenate(
                [ball] + [ops.left_mul(s, ball) for s in s_list]))
    mask_ab = (1 << (2 * ctx.n)) - 1
    return [ctx.unpack(int(z)) for z in ball[(ball & mask_ab) == 0]]


def commutator_square(ctx: GroupContext) -> list[Element]:
    """All commutators [x,y] over nonidentity x in X, y in Y."""
    out = set()
    for a in range(1, 1 << ctx.n):
        for b in range(1, 1 << ctx.n):
            out.add(mul(ctx, mul(ctx, mul(ctx, Element(a=a), Element(b=b)),
                                 Element(a=a)), Element(b=b)))
    return sorted(out, key=lambda e: ctx.pack(e))


# -- semisymmetry certificate ----------------------------------------------------------

def edge_regular_witness(ctx: GroupContext, sigma: Sigma,
                         full_closure_limit: int = 1 << 14) -> dict:
    """Witness that the group acts regularly on the edges.

    The edge bijection gives |E| = |group|; the orbit of the base edge
    under the right multiplications by the 2n generators is closed over
    explicitly when the edge count is small, and the action's consistency
    with the bijection (edge of z maps to edge of z*h) is spot-checked.
    """
    g = sigma.graph
    out = {"edge_count_matches_group": g.num_edges == 1 << ctx.total_bits}
    if g.num_edges <= full_closure_limit:
        eu, ev = g.edge_array()
        nv = np.int64(g.num_vertices)
        keys = eu * nv + ev
        gens = [xgen(ctx, i) for i in range(1, ctx.n + 1)] + \
               [ygen(ctx, j) for j in range(1, ctx.n + 1)]
        perms = []
        for h in gens:
            p = right_action(ctx, sigma, h)
            if not is_graph_automorphism(g, p):
                raise ValueError("right action is not an automorphism")
            pu, pv = p[eu], p[ev]
            perms.append(np.searchsorted(
                keys, np.minimum(pu, pv) * nv + np.maximum(pu, pv)))
        base = sigma.phi.edge_of(IDENTITY)
        orbit = orbits(perms, [base])[0]
        out["base_edge_orbit"] = len(orbit)
        out["edge_transitive"] = len(orbit) == g.num_edges
    else:
        out["base_edge_orbit"] = None
        out["edge_transitive"] = out["edge_count_matches_group"]
    return out


def layer_certificate(g: GraphData, root_u: int, root_v: int) -> dict:
    """Side-separating BFS invariant: differing layer profiles at the two
    roots certify that no automorphism swaps their orbits."""
    lu, _ = bfs_layers(g, root_u)
    lv, _ = bfs_layers(g, root_v)
    return {
        "layers_u": lu,
        "layers_v": lv,
        "certificate": "layer-profile" if lu != lv else "inconclusive",
    }


def semisymmetry_certificate(ctx: GroupContext, sigma: Sigma) -> dict:
    """Edge-transitivity witness plus vertex-intransitivity certificate.

    Passes iff the graph is certified edge-transitive (regular group
    action on edges plus local 2-arc-transitivity) and the BFS layer
    profiles of the two base vertices differ.  When the profiles agree
    the certificate is only inconclusive, never a transitivity claim.
    """
    root_x = sigma.vid_of("X", IDENTITY)
    root_y = sigma.vid_of("Y", IDENTITY)
    lc = layer_certificate(sigma.graph, root_x, root_y)
    witness = edge_regular_witness(ctx, sigma)
    local = check_local_2at(ctx)
    edge_transitive = bool(witness["edge_transitive"] and local["pass"])
    report = {
        "edge_transitive": edge_transitive,
        "intransitivity_certificate": lc["certificate"],
        "layers_X": lc["layers_u"],
        "layers_Y": lc["layers_v"],
        "pass": edge_transitive and lc["certificate"] == "layer-profile",
    }
    return report
