"""Symmetry machinery for the coset graph: the two vertex actions (right
multiplication by group elements and the GL x GL generator automorphisms),
orbit closure, the local 2-arc-transitivity check, BFS distance diagrams,
coarsest equitable refinement, the radius-4 ball identity in the Cayley
graph, and the semisymmetry certificate.

Both actions are affine on coset keys, a key being a class block and an
H' fibre: ``_affine_keys`` reads a scalar map vertex id -> vertex id at
the fibre-0 key of each class and the unit-fibre keys of class 0, for
the class images and unit-fibre offsets.  ``_key_permutation`` extends
them to every key and ``check_local_2at`` to the 2-arc vertices read off
``graphs.coset_rows``, both by ``bulk.xor_fold_array``.  The scalar map
is ``mul`` by h for a right action and ``InducedAutomorphism.apply`` for
a GL x GL pair, an XOR over the image table ``aut.images`` whose blocks
``_aut_map`` checks once; ``gl_action`` and ``check_local_2at``
recompute a sample with it (``_cross_check``).

Each shared graph algorithm has one implementation.  The one frontier
walk, ``graphs.walk`` over dense ids, serves BFS (``graphs.bfs_distances``
over a graph's rows) and orbit closure (``orbit_closure`` over
permutation arrays, behind the 2-arc count, the side orbits and the |Aut|
search).  The Cayley ball needs no walk: ``ball_intersect_derived`` meets
two half-radius balls in the middle, pairing the elements of one class
of H/H'.  This module owns the other two: ``color_refinement`` (behind
``equitable_refinement`` and the individualization-refinement search in
``autgroup``) and ``is_graph_automorphism``, the one edge-map predicate
(an automorphism, or with a target graph an isomorphism).

Edge transitivity has one exhaustive witness at every rank,
``edge_regular_witness``, with two counts: the row count
``Sigma.row_mismatches``, taken once per Sigma against the closed form
``graphs.coset_rows`` (the built rows of both sides are the edges of the
elements z; both are read off one voltage table, of which Σ is the
derived graph, and verify's derived-quotient-cover checks that table
against the scalar coset keys), and the action count (each of the 2n
generator actions moves the edge of z to the edge of z*h).  The action count gives the
right action's homomorphism property, and both counts with a permutation
test its automorphism property.  ``semisymmetry_certificate`` combines
the witness, the local 2-arc report and the base ``layer_certificate``.

Three whole-graph loops run in row blocks through ``graphs.in_blocks``,
on a thread pool of that loop when there are several blocks and CPUs (one
thread per CPU the process may use, at most ``graphs.MAX_WORKERS``): the
row pass of ``is_graph_automorphism``, which stops at the first block in
order that fails, the action count of ``edge_regular_witness`` and,
inside it, ``Sigma.row_mismatches``.  Blocks are combined in order, so
every count and report is the same as a serial run's.

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

from .bulk import _gather, packed_ops, xor_fold_array
from .graphs import (
    GraphConsistencyError,
    GraphData,
    ROW_CHUNK,
    Sigma,
    _half,
    _index_dtype,
    bfs_distances,
    bfs_layers,
    connection_set,
    coset_rows,
    coset_vertex,
    in_blocks,
    vertex_rep,
    walk,
)
from .group import (
    Element,
    GroupContext,
    IDENTITY,
    InducedAutomorphism,
    gl_generator_pairs,
    induced_automorphism,
    mul,
    xgen,
    ygen,
)

VertexPermutation = np.ndarray
VertexMap = Callable[[int], int]  # vertex id -> vertex id, on its side


# -- vertex actions -----------------------------------------------------------

def _right_mult_map(ctx: GroupContext, g: Element) -> VertexMap:
    """The id of the coset of the representative times g."""
    half = _half(ctx)
    return lambda vid: coset_vertex(
        ctx, "XY"[vid >= half], mul(ctx, vertex_rep(ctx, vid), g))


def _aut_map(ctx: GroupContext, aut: InducedAutomorphism) -> VertexMap:
    """The id of the coset of the representative's image under the scalar
    ``aut.apply``, whose XOR needs every x image in X, every y image in Y
    and every w or t image in H' (a = b = 0): else GraphConsistencyError."""
    n, half, images = ctx.n, _half(ctx), aut.images
    if not (all(img == Element(a=img.a) for img in images[:n])
            and all(img == Element(b=img.b) for img in images[n:2 * n])
            and not any(img.a or img.b for img in images[2 * n:])):
        raise GraphConsistencyError("a generator image lies outside its "
                                    "block of X, Y or H'")
    return lambda vid: coset_vertex(
        ctx, "XY"[vid >= half], aut.apply(vertex_rep(ctx, vid)))


def _affine_keys(ctx: GroupContext,
                 image: VertexMap) -> list[tuple[list[int], list[int]]]:
    """Per side (X, then Y), the class images C and unit-fibre offsets of
    a side-preserving map ``image``, read off 2^n + u probe keys.

    A key is a class (its low n bits) and an H' fibre (the u bits above).
    Right multiplications and the GL x GL pairs send key (d << n) | c to
    C[c] ^ xor_fold(offsets, d): C holds the images of the fibre-0 keys,
    the offsets those of the unit-fibre keys of class 0 from C[0].
    """
    half, n = _half(ctx), ctx.n
    units = [1 << (n + k) for k in range(ctx.dim_w + ctx.dim_t)]
    sides = []
    for first in (0, half):
        # Y ids are half + key, and the power of two half is above every
        # key bit, so it stays in the class images and cancels in offsets
        probe = [image(first + key) for key in [*range(1 << n), *units]]
        sides.append((probe[:1 << n],
                      [img ^ probe[0] for img in probe[1 << n:]]))
    return sides


def _key_permutation(ctx: GroupContext, sigma: Sigma,
                     image: VertexMap) -> VertexPermutation:
    """Vertex permutation of a map affine on coset keys: ``_affine_keys``
    on every key (d << n) | c, entry [d, c].  int32 wherever ids fit."""
    dtype, fibres = _index_dtype(2 * sigma.half), np.arange(sigma.half >> ctx.n)
    return np.concatenate([(xor_fold_array(offsets, fibres, dtype)[:, None]
                            ^ np.array(classes, dtype=dtype)).ravel()
                           for classes, offsets in _affine_keys(ctx, image)])


def right_action(ctx: GroupContext, sigma: Sigma, h: Element) -> VertexPermutation:
    """Vertex permutation of the coset graph from right multiplication by h.

    Sends each coset to the coset of rep*h; preserves sides, and is an
    automorphism (the edge through z maps to the edge through z*h).  The
    ``_key_permutation`` of the scalar products rep*h.
    """
    return _key_permutation(ctx, sigma, _right_mult_map(ctx, h))


def _xy_generators(ctx: GroupContext) -> list[Element]:
    return [xgen(ctx, i) for i in range(1, ctx.n + 1)] + \
           [ygen(ctx, j) for j in range(1, ctx.n + 1)]


def generator_actions(ctx: GroupContext,
                      sigma: Sigma) -> list[VertexPermutation]:
    """Right actions of the 2n generators x_1..x_n, y_1..y_n, in that
    order.  They generate the group, so they stand for its right action
    wherever a property is closed under composition."""
    return [right_action(ctx, sigma, h) for h in _xy_generators(ctx)]


GL_CROSS_CHECK = 16  # scalar recomputations per side or 2-arc generator


def _cross_check(image: VertexMap, ids: Sequence, images: Sequence) -> None:
    """The scalar map ``image`` recomputes GL_CROSS_CHECK of the sorted
    ``ids``, first to last, spread evenly by integer arithmetic (ids pass
    2^63 from n = 5), against their affine ``images``, a parallel
    sequence: a disagreement raises GraphConsistencyError."""
    for i in range(GL_CROSS_CHECK):
        at = i * (len(ids) - 1) // (GL_CROSS_CHECK - 1)
        if image(int(ids[at])) != images[at]:
            raise GraphConsistencyError("affine key map disagrees with "
                                        f"the scalar one at {ids[at]}")


def gl_action(ctx: GroupContext, sigma: Sigma,
              aut: InducedAutomorphism) -> VertexPermutation:
    """Vertex permutation from an induced automorphism (fixes the two base
    vertices and the side partition): the ``_key_permutation`` of the
    scalar ``InducedAutomorphism.apply``, with a ``_cross_check`` of the
    keys of each side, from the base vertex to the key with every bit set.
    """
    image = _aut_map(ctx, aut)
    perm = _key_permutation(ctx, sigma, image)
    for first, images in zip((0, sigma.half), np.split(perm, 2)):
        _cross_check(image, range(first, first + sigma.half), images)
    return perm


def is_permutation(perm: VertexPermutation) -> bool:
    # the ids in perm's own dtype: no int64 array of every id
    return bool(np.array_equal(np.sort(perm),
                               np.arange(len(perm), dtype=perm.dtype)))


def is_graph_automorphism(g: GraphData, perm: VertexPermutation,
                          target: GraphData | None = None) -> bool:
    """Whether the permutation perm maps g's edges onto target's (default
    g's own: an automorphism), row by row of the neighbor tables: the
    sorted images of N_g(v) must be N_target(perm[v]) for every v.
    Padding (-1) stays -1 and sorts last, so the degrees must match too."""
    nv = g.num_vertices
    nb, tb = g.rows, (target or g).rows
    if not (len(perm) == nv == len(tb) and is_permutation(perm)):
        return False
    padded = np.append(perm, nv)  # padding -1 reads nv, which sorts last

    def rows_map(lo: int) -> bool:
        img = padded[nb[lo:lo + ROW_CHUNK]]
        img.sort(axis=1)
        img[img == nv] = -1
        return np.array_equal(img,
                              np.take(tb, perm[lo:lo + ROW_CHUNK], axis=0))

    return all(in_blocks(rows_map, range(0, nv, ROW_CHUNK)))


# -- orbits ---------------------------------------------------------------------

def orbit_closure(perms: Sequence[np.ndarray], points: Iterable[int],
                  num_points: int) -> np.ndarray:
    """Mask of the orbits of ``points`` under the group generated by the
    permutation arrays ``perms``: the ``graphs.walk`` that steps to the
    images (a block reaches itself when there are none).  A forward
    closure is an orbit only when every map is a permutation."""
    return walk(lambda block: np.concatenate([p[block] for p in perms]
                                             or [block]),
                num_points, points) >= 0


# -- local 2-arc machinery ---------------------------------------------------

def _stabilizer_maps(ctx: GroupContext, side: str) -> list[VertexMap]:
    """Generator maps vertex id -> vertex id for the stabilizer of the
    base vertex of a side: right multiplications by that side's generators
    plus the GL x GL generator pairs (two standard generators per
    factor)."""
    gens = _xy_generators(ctx)
    maps = [_right_mult_map(ctx, g) for g in (gens[:ctx.n] if side == "X"
                                              else gens[ctx.n:])]
    return maps + [_aut_map(ctx, induced_automorphism(ctx, *pair))
                   for pair in gl_generator_pairs(ctx.n)]


def rooted_two_arcs(ctx: GroupContext, side: str) -> np.ndarray:
    """All 2-arcs (u, v, w), u != w, starting at the base vertex u of the
    given side, in increasing order: an (A, 3) array of vertex ids in the
    packed dtype, read off the sorted rows ``graphs.coset_rows``, the base
    vertex's row, then each neighbor's."""
    half, ops = _half(ctx), packed_ops(ctx)

    def rows(side: str, vids: np.ndarray) -> np.ndarray:
        first = 0 if side == "X" else half  # an X row holds Y keys
        return coset_rows(ctx, side, vids - first) + (half - first)

    root = np.array([coset_vertex(ctx, side, IDENTITY)], dtype=ops.dtype)
    middles = rows(side, root)[0]
    ends = rows("Y" if side == "X" else "X", middles)
    arcs = np.stack(np.broadcast_arrays(root, middles[:, None], ends), -1)
    return arcs[ends != root]


def check_local_2at(ctx: GroupContext) -> dict:
    """Transitivity of the base-vertex stabilizers on rooted 2-arcs.

    The stabilizer generators (right multiplications by the side's
    subgroup, plus the GL x GL pairs) map the sorted vertices of the
    2-arcs rooted at the base vertex of each side by their
    ``_affine_keys``, with a ``_cross_check`` per generator, and an arc
    mapped onto no rooted 2-arc raises GraphConsistencyError.  The
    check passes iff each side yields a single orbit.  Vertex
    transitivity of the group on each side then certifies local
    2-arc-transitivity at every root, without the full graph.
    """
    n, half, ops = ctx.n, _half(ctx), packed_ops(ctx)
    report: dict = {"n": n, "sides": {}}
    for side in ("X", "Y"):
        arcs = rooted_two_arcs(ctx, side)
        verts, pos = np.unique(arcs, return_inverse=True)
        pos, base = pos.reshape(arcs.shape), [len(verts) ** 2, len(verts), 1]
        codes = pos @ base  # vertex positions in base len(verts): ascending
        keys = (verts[verts < half], verts[verts >= half] - half)
        perms = []
        for m in _stabilizer_maps(ctx, side):
            image = np.concatenate([
                _gather(np.array(cls, dtype=ops.dtype), key & ops.mask_n)
                ^ xor_fold_array(offsets, key >> ops.sn, ops.dtype)
                for (cls, offsets), key in zip(_affine_keys(ctx, m), keys)])
            _cross_check(m, verts, image)
            perm = np.searchsorted(codes, np.searchsorted(verts, image)[pos]
                                   @ base) % len(arcs)
            if not np.array_equal(arcs[perm], image[pos]):
                raise GraphConsistencyError("a stabilizer generator maps a "
                                            "rooted 2-arc off the 2-arcs")
            perms.append(perm)
        # a closure is an orbit only under permutations
        seen, count = np.zeros(len(arcs), dtype=bool), 0
        while not seen.all():  # one closure per orbit
            seen |= orbit_closure(perms, [int(np.argmin(seen))], len(arcs))
            count += 1
        report["sides"][side] = {
            "two_arcs": len(arcs),
            "orbits": count,
            "pass": (count == 1 and len(arcs) == (1 << n) * ((1 << n) - 1)
                     and all(map(is_permutation, perms))),
        }
    report["pass"] = all(entry["pass"] for entry in report["sides"].values())
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
    table (``GraphData.rows``), with the number of colors.

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

    nb = g.rows
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

def ball_intersect_derived(ctx: GroupContext, radius: int) -> list[Element]:
    """Elements of the derived subgroup within the given Cayley-ball radius
    of the identity, sorted by packed key, by meet in the middle.

    Every word of length <= r is g*h with g in the ball B_ceil(r/2) and h
    in B_floor(r/2), each ball B_k = {1} u S*B_(k-1) built by ``np.unique``
    over the ``PackedOps.left_mul`` images, so neither the radius-r ball
    nor a Cayley graph is built.  H/H' is elementary abelian on the low 2n
    bits (the a and b blocks), so g*h lies in H' exactly when g and h
    share those bits: the products are taken over those pairs only.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ops = packed_ops(ctx)
    s_list = connection_set(ctx)
    balls = [np.zeros(1, dtype=ops.dtype)]
    for _ in range((radius + 1) // 2):
        balls.append(np.unique(np.concatenate(
            [balls[0], *(ops.left_mul(s, balls[-1]) for s in s_list)])))
    g, h = balls[(radius + 1) // 2], balls[radius // 2]
    mask_ab = ops.scalar((1 << (2 * ctx.n)) - 1)
    h = h[np.argsort(h & mask_ab)]
    h_low, g_low = h & mask_ab, g & mask_ab
    # the h of g's class are h[lo:lo + count], listed g by g
    lo = np.searchsorted(h_low, g_low, "left")
    count = np.searchsorted(h_low, g_low, "right") - lo
    pairs = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count),
                                               count)
    ball = np.unique(ops.mul(np.repeat(g, count), h[pairs]))
    return [ctx.unpack(int(z)) for z in ball]


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
                         actions: Sequence[VertexPermutation]) -> dict:
    """Exhaustive witness that the group acts on the edges of the built
    graph as its right regular action, with two counts.

    ``row_mismatches`` is ``Sigma.row_mismatches``, the one count per
    Sigma of built rows against their closed form ``graphs.coset_rows``:
    0 says the rows of both sides are the edges {X(z), Y(z)} of the
    elements z.
    ``action_mismatches`` counts the pairs (generator h, element z), in
    ``graphs.in_blocks`` blocks of ROW_CHUNK * 2^n elements, where p_h
    from ``actions`` fails p_h(X(z)) = X(z*h) or p_h(Y(z)) = Y(z*h).
    With both 0 the generators move edges as right multiplication moves
    elements, and the group acts on itself transitively.  z*h is the
    one-letter rule ``PackedOps.mul_gen`` and p_h the ``_key_permutation``
    of the scalar ``group.mul``, so scalar collection with the affine
    extension is also compared with the packed rule on every such product.
    """
    ops = packed_ops(ctx)
    gens = [ops.scalar(ctx.pack(h)) for h in _xy_generators(ctx)]
    if len(actions) != len(gens):
        raise ValueError(f"need {len(gens)} generator actions")
    rows = sigma.row_mismatches
    size, step = 1 << ctx.total_bits, ROW_CHUNK << ctx.n

    def mismatches(lo: int) -> int:
        z = np.arange(lo, min(lo + step, size), dtype=ops.dtype)
        u, v = sigma.edge_ends(z)
        count = 0
        for h, p in zip(gens, actions):
            hu, hv = sigma.edge_ends(ops.mul_gen(z, h))
            count += int(np.count_nonzero((hu != p[u]) | (hv != p[v])))
        return count

    moved = sum(in_blocks(mismatches, range(0, size, step)))
    edges = sigma.graph.num_edges
    return {"generators": len(gens), "edges": edges, "row_mismatches": rows,
            "action_mismatches": moved,
            "edge_transitive": rows == moved == 0 and edges == size}


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


def semisymmetry_certificate(witness: dict, local: dict,
                             layers: dict) -> dict:
    """Combines ``edge_regular_witness``, ``check_local_2at`` and the
    ``layer_certificate`` of the X and Y base vertices.

    Passes iff the graph is certified edge-transitive (regular group
    action on edges plus local 2-arc-transitivity) and the BFS layer
    profiles of the two base vertices differ.  When the profiles agree
    the certificate is only inconclusive, never a transitivity claim.
    """
    edge_transitive = bool(witness["edge_transitive"] and local["pass"])
    return {
        "edge_transitive": edge_transitive,
        "intransitivity_certificate": layers["certificate"],
        "layers_X": layers["layers_u"],
        "layers_Y": layers["layers_v"],
        "pass": edge_transitive and layers["certificate"] == "layer-profile",
    }
