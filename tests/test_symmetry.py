"""Actions, orbits, 2-arc transitivity, diagrams, the ball identity and
the semisymmetry certificate."""

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from mixdih import bulk, graphs, symmetry
from mixdih.bulk import packed_ops
from mixdih.graphs import GraphConsistencyError, bfs_distances, \
    build_gamma, build_sigma, coset_vertex, graph_from_edges, \
    quotient_by_derived, vertex_rep, walk
from mixdih.group import (
    IDENTITY,
    Element,
    context,
    gf2_identity,
    gl_enumerate,
    gl_generator_pairs,
    induced_automorphism,
    mul,
    xgen,
    ygen,
)
from mixdih.symmetry import (
    GL_CROSS_CHECK,
    ball_intersect_derived,
    check_local_2at,
    commutator_square,
    distance_layers,
    edge_regular_witness,
    equitable_refinement,
    generator_actions,
    gl_action,
    is_graph_automorphism,
    is_permutation,
    layer_certificate,
    orbit_closure,
    refined_diagram,
    right_action,
    rooted_two_arcs,
    semisymmetry_certificate,
)
from mixdih.verify import (
    EXPECTED_CELLS_X_N2,
    EXPECTED_CELLS_Y_N2,
    EXPECTED_LAYERS_X_N2,
    EXPECTED_LAYERS_Y_N2,
    check_edge_bijection,
    check_right_action_automorphism,
    run_suite,
)


@pytest.fixture(scope="module")
def ctx2():
    return context(2)


@pytest.fixture(scope="module")
def sigma2(ctx2):
    return build_sigma(ctx2)


def from_pairs(nv, pairs):
    u, v = zip(*pairs)
    return graph_from_edges(nv, u, v)


# -- actions ------------------------------------------------------------------

def test_right_action_identity(ctx2, sigma2):
    p = right_action(ctx2, sigma2, IDENTITY)
    assert np.array_equal(p, np.arange(512))


def packed_right_action(ctx, sigma, h):
    """Reference: every coset representative times h in the closed-form
    ``PackedOps.mul``, with the image vertices read off the coset keys."""
    ops = packed_ops(ctx)
    half, zh = sigma.half, ctx.pack(h)
    keys = np.arange(half, dtype=ops.dtype)
    return np.concatenate([ops.x_coset_key(ops.mul(keys << ops.sn, zh)),
                           ops.y_coset_key(ops.mul(ctx.y_rep(keys), zh))
                           + half])


def test_right_action_is_affine_on_keys_at_rank2(ctx2, sigma2):
    # the affine extension from 2(2^n + u) probe keys equals the packed
    # product on every key, for every h
    for z in range(1 << ctx2.total_bits):
        h = ctx2.unpack(z)
        assert np.array_equal(right_action(ctx2, sigma2, h),
                              packed_right_action(ctx2, sigma2, h))


def test_right_action_is_affine_on_keys_at_rank3():
    # the same on every key for the 6 generators and 3 seeded elements
    ctx3 = context(3)
    sigma3 = build_sigma(ctx3)
    rng = random.Random(33)
    hs = symmetry._xy_generators(ctx3) + [
        ctx3.unpack(rng.getrandbits(ctx3.total_bits)) for _ in range(3)]
    for h in hs:
        assert np.array_equal(right_action(ctx3, sigma3, h),
                              packed_right_action(ctx3, sigma3, h))


def test_right_action_is_automorphism(ctx2, sigma2):
    rng = random.Random(0)
    for _ in range(25):
        h = ctx2.unpack(rng.getrandbits(10))
        p = right_action(ctx2, sigma2, h)
        assert is_graph_automorphism(sigma2.graph, p)
        # side-preserving
        assert np.all((p < 256) == (np.arange(512) < 256))


def test_automorphism_rejects_swap(sigma2):
    # X vertices 0 and 1 have different neighborhoods
    p = np.arange(512)
    p[[0, 1]] = p[[1, 0]]
    assert set(sigma2.graph.neighbors(0)) != set(sigma2.graph.neighbors(1))
    assert not is_graph_automorphism(sigma2.graph, p)


def test_automorphism_rejects_non_bijection(sigma2):
    p = np.arange(512)
    p[1] = 0
    assert not is_graph_automorphism(sigma2.graph, p)
    assert not is_graph_automorphism(sigma2.graph, np.arange(511))


def edge_key_automorphism(g, perm):
    """Reference: the image edge keys, sorted, equal the edge keys."""
    perm = np.asarray(perm)
    if len(perm) != g.num_vertices or \
            not np.array_equal(np.sort(perm), np.arange(g.num_vertices)):
        return False
    eu, ev = g.edge_array()
    pu, pv = perm[eu], perm[ev]
    nv = g.num_vertices
    img = np.sort(np.minimum(pu, pv) * nv + np.maximum(pu, pv))
    return bool(np.array_equal(eu * nv + ev, img))


def relabeled(nv, pairs, q):
    return from_pairs(nv, [(q[u], q[v]) for u, v in pairs])


@pytest.mark.parametrize("seed", range(12))
def test_automorphism_matches_edge_key_reference(seed):
    rng = random.Random(seed)
    k = rng.randint(3, 12)
    if seed % 2:
        # circulant: regular, with the rotations as automorphisms
        steps = rng.sample(range(1, k // 2 + 1), rng.randint(1, k // 2))
        nv = k
        pairs = sorted({(min(i, (i + s) % k), max(i, (i + s) % k))
                        for i in range(k) for s in steps})
        auto = [(i + 1) % k for i in range(k)]
    else:
        # two copies of a random graph: irregular, with the copy swap
        nv = 2 * k
        half = [(u, v) for u in range(k) for v in range(u + 1, k)
                if rng.random() < 0.4] or [(0, 1)]
        pairs = half + [(u + k, v + k) for u, v in half]
        auto = [(i + k) % nv for i in range(nv)]
    q = rng.sample(range(nv), nv)
    g = relabeled(nv, pairs, q)
    inv_q = np.argsort(q)
    # the automorphism carried to the relabeled graph
    aut = np.array(q)[np.array(auto)[inv_q]]
    swapped = aut.copy()
    i, j = rng.sample(range(nv), 2)
    swapped[[i, j]] = swapped[[j, i]]
    cases = [aut, swapped, np.arange(nv), np.array(rng.sample(range(nv), nv))]
    cases += [np.r_[aut[:-1], aut[0]], aut[:-1]]  # not bijections
    assert edge_key_automorphism(g, aut)
    for perm in cases:
        assert is_graph_automorphism(g, perm) == edge_key_automorphism(g, perm)


def test_right_action_homomorphism(ctx2, sigma2):
    rng = random.Random(1)
    for _ in range(50):
        g = ctx2.unpack(rng.getrandbits(10))
        h = ctx2.unpack(rng.getrandbits(10))
        p, q = right_action(ctx2, sigma2, g), right_action(ctx2, sigma2, h)
        # p first, then q
        assert np.array_equal(q[p],
                              right_action(ctx2, sigma2, mul(ctx2, g, h)))


def test_right_action_edge_regular(ctx2, sigma2):
    actions = generator_actions(ctx2, sigma2)
    assert edge_regular_witness(ctx2, sigma2, actions) == {
        "generators": 4, "edges": 1024, "row_mismatches": 0,
        "action_mismatches": 0, "edge_transitive": True}
    # reference: close the base-edge orbit under the generator actions,
    # with each image edge found among the sorted edge keys
    g = sigma2.graph
    eu, ev = g.edge_array()
    nv = g.num_vertices
    keys = eu * nv + ev
    perms = []
    for p in actions:
        assert is_graph_automorphism(g, p)
        pu, pv = p[eu].astype(np.int64), p[ev].astype(np.int64)
        perms.append(np.searchsorted(
            keys, np.minimum(pu, pv) * nv + np.maximum(pu, pv)))
    bu, bv = sigma2.edge_ends(np.zeros(1, dtype=np.uint32))  # identity's
    base = np.searchsorted(keys, bu.astype(np.int64) * nv + bv)
    assert orbit_closure(perms, base.tolist(), 1024).all()


@pytest.mark.runner
def test_row_block_loops_match_at_small_blocks(monkeypatch, ctx2, sigma2,
                                               x_neighbor_moved):
    # the same counts and verdicts in blocks of 7 rows (28 elements per
    # witness block), where the differences sit in late blocks: Y rows
    # 495 and 496 (Y key 239 is in block 34 of 37), and X vertices 250 and
    # 251 swapped in a permutation and in one generator's action
    actions = generator_actions(ctx2, sigma2)
    bad_action = actions[2].copy()
    bad_action[[250, 251]] = bad_action[[251, 250]]
    swap = np.arange(512)
    swap[[250, 251]] = [251, 250]

    def counts():
        moved = x_neighbor_moved(sigma2, 495, 496)
        return (moved.row_mismatches,
                edge_regular_witness(ctx2, sigma2, actions),
                edge_regular_witness(ctx2, sigma2,
                                     actions[:2] + [bad_action] + actions[3:]),
                [is_graph_automorphism(sigma2.graph, p)
                 for p in actions + [swap, bad_action]])

    want = counts()
    assert want[0] > 0 and want[2]["action_mismatches"] > 0
    assert want[3] == [True] * 4 + [False, False]
    for module in (graphs, symmetry):
        monkeypatch.setattr(module, "ROW_CHUNK", 7)
    assert counts() == want


def test_generator_actions_are_the_right_actions(ctx2, sigma2):
    actions = generator_actions(ctx2, sigma2)
    gens = [xgen(ctx2, 1), xgen(ctx2, 2), ygen(ctx2, 1), ygen(ctx2, 2)]
    assert len(actions) == 4
    for p, h in zip(actions, gens):
        assert p.dtype == np.int32
        assert np.array_equal(p, right_action(ctx2, sigma2, h))


def statuses(report):
    return {c.name: c.status for c in report.checks}


def test_witness_sees_swapped_edge_ids(ctx2, sigma2, y_neighbor_moved,
                                      monkeypatch):
    # an element of X row 0 and one of X row 200 exchange the Y ends of
    # their edges; the coset keys, and so the generator actions, are
    # unchanged: only the checks that read the built rows can see it
    bad = y_neighbor_moved(sigma2, 0, 200)
    w = edge_regular_witness(ctx2, bad, generator_actions(ctx2, bad))
    assert w["row_mismatches"] > 0 and not w["edge_transitive"]
    assert w["action_mismatches"] == 0
    monkeypatch.setattr(graphs, "build_sigma", lambda ctx, force=False: bad)
    got = statuses(run_suite(2, "symmetry"))
    assert got["edge-regular-action"] == "fail"
    assert got["semisymmetry-certificate"] == "fail"
    assert got["right-action-automorphism"] == "fail"
    assert got["right-action-homomorphism"] == "pass"  # the action is right


def test_checks_see_a_y_row_moved(ctx2, sigma2, x_neighbor_moved,
                                  monkeypatch):
    # Y rows 256 and 456 exchange an X neighbor; the X rows, the coset
    # keys and the generator actions are unchanged, so only a check that
    # reads the Y rows can see it
    bad = x_neighbor_moved(sigma2, 256, 456)
    w = edge_regular_witness(ctx2, bad, generator_actions(ctx2, bad))
    assert w["row_mismatches"] > 0 and w["action_mismatches"] == 0
    monkeypatch.setattr(graphs, "build_sigma", lambda ctx, force=False: bad)
    got = statuses(run_suite(2, "graphs")) | statuses(run_suite(2, "symmetry"))
    for name in ("edge-regular-action", "right-action-automorphism",
                 "semisymmetry-certificate", "edge-bijection",
                 "clique-coset-duality", "line-graph-duality"):
        assert got[name] == "fail", name
    # the quotient and its cover claim are read off the voltage table
    assert got["derived-quotient-cover"] == got["export-roundtrip"] == "pass"


def test_derived_automorphism_check_agrees_with_the_predicate(ctx2, sigma2):
    # each case stands in for one generator's action: the derived check
    # (witness counts plus a permutation test) and the row-wise predicate
    # must give the same verdict
    actions = generator_actions(ctx2, sigma2)
    cases = []
    for i, p in enumerate(actions):
        swapped, repeated = p.copy(), p.copy()
        swapped[[0, 1]] = swapped[[1, 0]]  # X vertices 0 and 1
        repeated[1] = repeated[0]  # not a permutation
        cases += [(i, p, "pass"), (i, swapped, "fail"), (i, repeated, "fail")]
    for i, p, want in cases:
        acts = actions[:i] + [p] + actions[i + 1:]
        status, _, _ = check_right_action_automorphism(
            ctx2, 0, random.Random(0), {"sigma": sigma2, "actions": acts})
        routes = all(is_graph_automorphism(sigma2.graph, q) for q in acts)
        assert status == want and (status == "pass") == routes


@pytest.mark.parametrize("pair", [[0, 1], [256, 257]], ids=["X", "Y"])
def test_witness_sees_a_corrupted_generator_action(ctx2, sigma2, pair,
                                                   monkeypatch):
    real = symmetry.generator_actions

    def corrupted(ctx, sigma):
        actions = real(ctx, sigma)
        actions[2] = actions[2].copy()
        actions[2][pair] = actions[2][pair[::-1]]  # two vertices of a side
        return actions

    w = edge_regular_witness(ctx2, sigma2, corrupted(ctx2, sigma2))
    assert w["action_mismatches"] > 0 and not w["edge_transitive"]
    monkeypatch.setattr(symmetry, "generator_actions", corrupted)
    got = statuses(run_suite(2, "symmetry"))
    assert got["edge-regular-action"] == "fail"
    assert got["right-action-automorphism"] == "fail"
    assert got["right-action-homomorphism"] == "fail"


def test_homomorphism_check_covers_the_group_without_samples():
    # the fewest samples a suite takes: the count covers every element
    checks = {c.name: c for c in run_suite(2, "symmetry", samples=1).checks}
    hom = checks["right-action-homomorphism"]
    assert hom.status == "pass"
    assert hom.actual == {"generators": 4, "elements": 1024, "mismatches": 0}


def test_side_orbits_see_an_action_that_swaps_the_sides(monkeypatch):
    real = symmetry.generator_actions

    def swapping(ctx, sigma):
        actions = real(ctx, sigma)
        actions[0] = actions[0].copy()
        actions[0][[5, 300]] = actions[0][[300, 5]]  # an X and a Y vertex
        return actions

    monkeypatch.setattr(symmetry, "generator_actions", swapping)
    checks = {c.name: c for c in run_suite(2, "symmetry").checks}
    assert checks["vertex-orbits-sides"].status == "fail"
    assert checks["vertex-orbits-sides"].actual == {"orbit_sizes": [512]}


def test_side_orbits_fail_on_an_action_that_is_not_a_permutation(
        monkeypatch):
    # a forward closure is an orbit only under permutations: with X
    # vertex 5 sent where vertex 6 goes, the closures still read two
    # sides of 256 vertices
    real = symmetry.generator_actions

    def merging(ctx, sigma):
        actions = real(ctx, sigma)
        actions[0] = actions[0].copy()
        actions[0][5] = actions[0][6]
        return actions

    monkeypatch.setattr(symmetry, "generator_actions", merging)
    checks = {c.name: c for c in run_suite(2, "symmetry").checks}
    assert checks["vertex-orbits-sides"].status == "fail"
    assert checks["vertex-orbits-sides"].actual == {"non_permutations": 1}
    assert checks["right-action-automorphism"].status == "fail"


def test_suite_shares_actions_and_base_bfs(monkeypatch):
    calls, roots, tested = Counter(), Counter(), Counter()
    real_actions, real_layers = symmetry.generator_actions, graphs.bfs_layers
    real_is_permutation = symmetry.is_permutation
    actions = []

    def counted_actions(ctx, sigma):
        calls["generator_actions"] += 1
        actions.extend(real_actions(ctx, sigma))
        return actions

    def counted_is_permutation(perm):
        tested[next((i for i, p in enumerate(actions) if p is perm),
                    None)] += 1
        return real_is_permutation(perm)

    def counted_layers(g, root):
        roots[root] += 1
        return real_layers(g, root)

    monkeypatch.setattr(symmetry, "generator_actions", counted_actions)
    monkeypatch.setattr(symmetry, "is_permutation", counted_is_permutation)
    monkeypatch.setattr(symmetry, "bfs_layers", counted_layers)
    monkeypatch.setattr(graphs, "bfs_layers", counted_layers)
    report = run_suite(2, "symmetry")
    assert report.overall == "pass"
    assert calls == {"generator_actions": 1}
    assert roots == {0: 1, 256: 1}  # the X and Y base vertices
    # each action is tested for a permutation once, by the suite cache
    assert all(tested[i] == 1 for i in range(len(actions)))


def test_suite_compares_rows_once(monkeypatch):
    # one build and one row pass, though edge-bijection, the witness and
    # line-graph-duality all read the row count
    sides, real = [], graphs.coset_rows

    def counted(ctx, side, keys):
        sides.append(side)
        return real(ctx, side, keys)

    monkeypatch.setattr(graphs, "coset_rows", counted)
    build_sigma(context(2))
    build = list(sides)
    assert build == ["X", "Y"]  # one row block per side at n=2
    sides.clear()
    assert run_suite(2, "all").overall == "pass"
    assert sides == build + build


def test_edge_ends_reject_another_edge_layout(ctx2, sigma2):
    # element 5 lies in X row 1, and its Y end in that built row
    u, v = sigma2.edge_ends(np.array([5], dtype=np.uint32))
    assert u[0] == 1 and v[0] in sigma2.graph.neighbors(1)
    g = sigma2.graph
    # every row padded by one -1: rows of width 5
    rows = np.pad(g.rows, ((0, 0), (0, 1)), constant_values=-1)
    bad = dataclasses.replace(sigma2, graph=dataclasses.replace(g, rows=rows))
    # rows of another length than 2^n are refused before any comparison
    with pytest.raises(GraphConsistencyError, match="length 2"):
        bad.row_mismatches
    with pytest.raises(GraphConsistencyError, match="length 2"):
        edge_regular_witness(ctx2, bad, generator_actions(ctx2, bad))
    with pytest.raises(GraphConsistencyError, match="length 2"):
        check_edge_bijection(ctx2, 0, random.Random(0), {"sigma": bad})


def test_gl_action_all_pairs(ctx2, sigma2):
    rx = coset_vertex(ctx2, "X", IDENTITY)
    ry = coset_vertex(ctx2, "Y", IDENTITY)
    mats = gl_enumerate(2)
    for g1 in mats:
        for g2 in mats:
            p = gl_action(ctx2, sigma2,
                          induced_automorphism(ctx2, g1, g2))
            assert p[rx] == rx and p[ry] == ry
            assert is_graph_automorphism(sigma2.graph, p)


def test_gl_action_neighbor_orbits(ctx2, sigma2):
    # on the neighbors of the X base vertex: the Y base vertex is fixed,
    # the other three form one orbit
    rx = coset_vertex(ctx2, "X", IDENTITY)
    ry = coset_vertex(ctx2, "Y", IDENTITY)
    ident = gf2_identity(2)
    perms = []
    from mixdih.group import gl_generators
    for mat in gl_generators(2):
        perms.append(gl_action(ctx2, sigma2,
                               induced_automorphism(ctx2, mat, ident)))
        perms.append(gl_action(ctx2, sigma2,
                               induced_automorphism(ctx2, ident, mat)))
    nv = sigma2.graph.num_vertices
    rest = [v for v in sigma2.graph.neighbors(rx).tolist() if v != ry]
    assert np.flatnonzero(orbit_closure(perms, [ry], nv)).tolist() == [ry]
    assert np.flatnonzero(orbit_closure(perms, rest[:1], nv)).tolist() == rest


def scalar_gl_action(ctx, sigma, aut):
    """Reference: each vertex through the scalar word rewrite."""
    return np.array([
        coset_vertex(ctx, "X" if v < sigma.half else "Y",
                     aut.apply(vertex_rep(ctx, v)))
        for v in range(sigma.graph.num_vertices)])


def test_gl_action_matches_scalar_reference(ctx2, sigma2):
    mats = gl_enumerate(2)
    for g1 in mats:
        for g2 in mats:
            aut = induced_automorphism(ctx2, g1, g2)
            assert np.array_equal(gl_action(ctx2, sigma2, aut),
                                  scalar_gl_action(ctx2, sigma2, aut))


def test_gl_action_matches_scalar_samples_at_rank3():
    # the keys' gathers against the scalar word rewrite on 300 seeded
    # vertices of each side, for every generator pair (the exhaustive
    # comparison above is rank 2 only)
    ctx3 = context(3)
    sigma3 = build_sigma(ctx3)
    rng = np.random.default_rng(3)
    half = sigma3.half
    for pair in gl_generator_pairs(3):
        aut = induced_automorphism(ctx3, *pair)
        perm = gl_action(ctx3, sigma3, aut)
        for side, first in (("X", 0), ("Y", half)):
            for v in (rng.choice(half, 300, replace=False) + first).tolist():
                assert perm[v] == coset_vertex(
                    ctx3, side, aut.apply(vertex_rep(ctx3, v)))


def test_gl_cross_check_reaches_the_derived_blocks(ctx2, sigma2):
    # the scalar cross-check, after the 2(2^n + u) probe keys, covers
    # representatives whose m and t blocks are set, on both sides
    aut = induced_automorphism(ctx2, gf2_identity(2), gf2_identity(2))
    seen, apply = [], aut.apply
    aut.apply = lambda h: seen.append(h) or apply(h)
    gl_action(ctx2, sigma2, aut)
    probes = 2 * ((1 << ctx2.n) + ctx2.dim_w + ctx2.dim_t)
    assert len(seen) == probes + 2 * GL_CROSS_CHECK
    sampled = seen[probes:]
    for reps in (sampled[:GL_CROSS_CHECK], sampled[GL_CROSS_CHECK:]):
        assert len(set(reps)) == GL_CROSS_CHECK
        assert any(r.m and r.t for r in reps)


def corrupt_fibre_span(monkeypatch):
    """Flip bit u, an H' fibre bit of a key, wherever the array fold of the
    u fibre offsets runs at the fibre with every bit set."""
    fold = bulk.xor_fold_array

    def corrupted(images, s, dtype):
        out = fold(images, s, dtype)
        out[s == (1 << len(images)) - 1] ^= 1 << len(images)
        return out
    monkeypatch.setattr(symmetry, "xor_fold_array", corrupted)


def test_actions_reject_a_corrupted_fibre_span(ctx2, sigma2, monkeypatch):
    good = right_action(ctx2, sigma2, xgen(ctx2, 1))
    corrupt_fibre_span(monkeypatch)
    aut = induced_automorphism(ctx2, gf2_identity(2), gf2_identity(2))
    with pytest.raises(GraphConsistencyError):
        gl_action(ctx2, sigma2, aut)
    assert not np.array_equal(right_action(ctx2, sigma2, xgen(ctx2, 1)),
                              good)
    report = run_suite(2, "symmetry", samples=10)
    status = {c.name: c.status for c in report.checks}
    assert status["gl-action-automorphism"] == "fail"
    assert status["edge-regular-action"] == "fail"


def test_gl_action_rejects_an_image_outside_the_derived_subgroup(ctx2,
                                                                 sigma2):
    # a w image with an a bit, an x image with a b bit and a y image with
    # an a bit: each lies outside its block of H', X or Y
    for sym, bad in ((("w", 1, 2), lambda img: Element(a=1, m=img.m)),
                     (("x", 1), lambda img: img._replace(b=1)),
                     (("y", 2), lambda img: img._replace(a=1))):
        aut = induced_automorphism(ctx2, gf2_identity(2), gf2_identity(2))
        p = ctx2.letter(sym)
        aut.images[p] = bad(aut.images[p])
        with pytest.raises(GraphConsistencyError):
            gl_action(ctx2, sigma2, aut)


# -- orbits ---------------------------------------------------------------------

def test_orbits_no_generators():
    # with no generators each point is its own orbit
    assert orbit_closure([], [0, 2], 3).tolist() == [True, False, True]
    assert walk(lambda block: block[:0], 3, [1]).tolist() == [-1, 0, -1]


def test_orbits_h_on_vertices(ctx2, sigma2):
    gens = [xgen(ctx2, 1), xgen(ctx2, 2), ygen(ctx2, 1), ygen(ctx2, 2)]
    perms = [right_action(ctx2, sigma2, h) for h in gens]
    sides = np.repeat([0, 1], 256)
    assert np.array_equal(orbit_closure(perms, [0], 512), sides == 0)
    assert np.array_equal(orbit_closure(perms, [256], 512), sides == 1)
    assert orbit_closure(perms, [3, 300], 512).all()


def closure_labels(perms, num_points):
    """Reference: plain breadth-first closure from each new point, each
    orbit labelled by its least point."""
    label = [None] * num_points
    for start in range(num_points):
        if label[start] is None:
            orbit, queue = {start}, [start]
            while queue:
                x = queue.pop()
                for p in perms:
                    if int(p[x]) not in orbit:
                        orbit.add(int(p[x]))
                        queue.append(int(p[x]))
            for x in orbit:
                label[x] = start
    return label


def random_perms(rng, nv):
    """Up to three random permutations and a product of 3-cycles, which
    makes many small orbits."""
    perms = [np.array(rng.sample(range(nv), nv))
             for _ in range(rng.randint(0, 3))]
    tail = nv - nv % 3
    perms.append(np.array([x - x % 3 + (x + 1) % 3 for x in range(tail)]
                          + list(range(tail, nv))))
    return perms


@pytest.mark.parametrize("seed", range(10))
def test_orbits_match_closure(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 60)
    perms = random_perms(rng, nv)
    label = closure_labels(perms, nv)
    for x in range(nv):
        assert np.flatnonzero(orbit_closure(perms, [x], nv)).tolist() == \
            [y for y in range(nv) if label[y] == label[x]]


@pytest.mark.parametrize("seed", range(10))
def test_walk_from_a_root_set_is_the_union_of_single_root_walks(
        monkeypatch, seed):
    # the steps from a root set are the fewest from any one of its roots,
    # also when spans of 16 ids, stepped one id at a time, split every
    # frontier across up to 4 blocks
    rng = random.Random(seed)
    nv = rng.randint(1, 60)
    perms = random_perms(rng, nv)[-2:]  # few maps: orbits of several layers
    roots = rng.sample(range(nv), rng.randint(1, min(nv, 4)))

    def step(block):
        return np.concatenate([p[block] for p in perms])

    for chunk in (graphs.ROW_CHUNK, 1):
        monkeypatch.setattr(graphs, "ROW_CHUNK", chunk)
        singles = np.array([walk(step, nv, [r]) for r in roots])
        nearest = np.where(singles < 0, nv, singles).min(axis=0)
        assert walk(step, nv, roots).tolist() == \
            np.where(nearest == nv, -1, nearest).tolist()
        assert orbit_closure(perms, roots, nv).tolist() == \
            (singles >= 0).any(axis=0).tolist()


def test_walk_follows_a_long_cycle():
    nv = 1000
    cycle = np.roll(np.arange(nv), -1)  # x -> x + 1 mod nv
    assert walk(lambda block: cycle[block], nv, [0]).tolist() == \
        list(range(nv))
    assert orbit_closure([cycle], [700], nv).all()


# -- local 2-arc transitivity ------------------------------------------------------

def scalar_neighbors(ctx, side, vid):
    """Sorted neighbor ids of vertex vid: the other side's cosets of the
    2^n members x^c * rep (X side) or y^c * rep (Y side), by scalar
    products."""
    rep, other = vertex_rep(ctx, vid), "Y" if side == "X" else "X"
    letter = (lambda c: Element(a=c)) if side == "X" else \
        (lambda c: Element(b=c))
    return sorted(coset_vertex(ctx, other, mul(ctx, letter(c), rep))
                  for c in range(1 << ctx.n))


def test_coset_neighbors_of_base():
    # the 2-arcs read off coset_rows against scalar neighbors of the base
    # vertex and of each of its neighbors, at n=2 and 3
    for n in (2, 3):
        ctx = context(n)
        half = graphs._half(ctx)
        # the Y-cosets of X's members x^c, whose b = 0 reps pack to c
        assert scalar_neighbors(ctx, "X", 0) == [half + c
                                                 for c in range(1 << n)]
        for side, other in (("X", "Y"), ("Y", "X")):
            root = coset_vertex(ctx, side, IDENTITY)
            want = [(root, v, w) for v in scalar_neighbors(ctx, side, root)
                    for w in scalar_neighbors(ctx, other, v) if w != root]
            assert rooted_two_arcs(ctx, side).tolist() == \
                [list(arc) for arc in want], (n, side)


@pytest.mark.parametrize("n,count", [(2, 12), (3, 56)])
def test_rooted_two_arc_count(n, count):
    ctx = context(n)
    assert len(rooted_two_arcs(ctx, "X")) == count
    assert len(rooted_two_arcs(ctx, "Y")) == count


@pytest.mark.parametrize("n", [2, 3])
def test_local_2at_single_orbit(n):
    rep = check_local_2at(context(n))
    assert rep["pass"]
    for side in ("X", "Y"):
        assert rep["sides"][side]["orbits"] == 1


def test_local_2at_fails_without_gl(monkeypatch):
    real = symmetry._stabilizer_maps
    monkeypatch.setattr(symmetry, "_stabilizer_maps",
                        lambda ctx, side: real(ctx, side)[:ctx.n])
    rep = check_local_2at(context(2))
    assert not rep["pass"]
    assert rep["sides"]["X"]["orbits"] > 1


def test_local_2at_rejects_a_generator_that_moves_the_root(monkeypatch):
    # right multiplication by y_1 maps the X base vertex to another X
    # vertex, so the images of its rooted 2-arcs are no rooted 2-arcs
    real = symmetry._stabilizer_maps

    def maps(ctx, side):
        extra = symmetry._right_mult_map(ctx, ygen(ctx, 1))
        return real(ctx, side) + ([extra] if side == "X" else [])
    monkeypatch.setattr(symmetry, "_stabilizer_maps", maps)
    with pytest.raises(GraphConsistencyError):
        check_local_2at(context(2))
    report = run_suite(2, "symmetry", samples=10)
    status = {c.name: c.status for c in report.checks}
    assert status["local-2-arc-transitivity"] == "fail"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_affine_keys_match_the_scalar_maps_on_the_arcs(n, monkeypatch):
    # the images that check_local_2at computes for every stabilizer
    # generator, C[c] ^ xor_fold_array(offsets, d) of key (d << n) | c and
    # handed to _cross_check with the sorted arc vertices, against the
    # generator's scalar map on every vertex of the 2-arcs of both sides
    ctx, calls = context(n), []
    real = symmetry._cross_check
    monkeypatch.setattr(symmetry, "_cross_check", lambda m, ids, images:
                        calls.append((m, ids, images)) or real(m, ids, images))
    assert check_local_2at(ctx)["pass"]
    gens = n + len(gl_generator_pairs(n))
    assert len(calls) == 2 * gens
    for side, side_calls in (("X", calls[:gens]), ("Y", calls[gens:])):
        verts = np.unique(rooted_two_arcs(ctx, side)).tolist()
        for m, ids, images in side_calls:
            assert ids.tolist() == verts, (n, side)
            assert images.tolist() == [m(vid) for vid in verts], (n, side)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_2at_calls_the_scalar_maps_only_at_probes_and_samples(
        n, monkeypatch):
    # 2(2^n + u) probe keys and GL_CROSS_CHECK sampled arc vertices per
    # generator, whatever the number of arc vertices
    ctx = context(n)
    real, calls = symmetry._stabilizer_maps, Counter()
    monkeypatch.setattr(symmetry, "_stabilizer_maps", lambda ctx, side: [
        lambda vid, m=m, key=(side, i): calls.update([key]) or m(vid)
        for i, m in enumerate(real(ctx, side))])
    assert check_local_2at(ctx)["pass"]
    per_generator = 2 * ((1 << n) + ctx.dim_w + ctx.dim_t) + GL_CROSS_CHECK
    gens = n + len(gl_generator_pairs(n))
    assert calls == {(side, i): per_generator
                     for side in ("X", "Y") for i in range(gens)}


def test_local_2at_rejects_a_map_wrong_at_a_sampled_vertex(monkeypatch):
    ctx = context(2)
    real = symmetry._stabilizer_maps
    first, seen = real(ctx, "X")[0], []
    monkeypatch.setattr(symmetry, "_stabilizer_maps", lambda ctx, side: [
        lambda vid: seen.append(vid) or first(vid)] if side == "X" else [])
    check_local_2at(ctx)
    # the calls past the probes are the sampled arc vertices
    probes = 2 * ((1 << ctx.n) + ctx.dim_w + ctx.dim_t)
    assert len(seen) == probes + GL_CROSS_CHECK
    target = next(v for v in seen[probes:] if v not in seen[:probes])
    monkeypatch.setattr(symmetry, "_stabilizer_maps", lambda ctx, side: [
        lambda vid, m=m: m(vid) ^ (vid == target) for m in real(ctx, side)])
    with pytest.raises(GraphConsistencyError):
        check_local_2at(ctx)
    report = run_suite(2, "symmetry", samples=10)
    status = {c.name: c.status for c in report.checks}
    assert status["local-2-arc-transitivity"] == "fail"
    assert [c.actual for c in report.checks
            if c.name == "local-2-arc-transitivity"] == [
        "GraphConsistencyError: affine key map disagrees with the scalar "
        f"one at {target}"]


# -- distance diagrams -----------------------------------------------------------------

def test_layers_from_x(ctx2, sigma2):
    d = distance_layers(sigma2.graph, coset_vertex(ctx2, "X", IDENTITY), "X")
    assert d.layers == EXPECTED_LAYERS_X_N2
    assert sum(d.layers) == 512
    assert d.unreachable == 0


def test_layers_from_y(ctx2, sigma2):
    d = distance_layers(sigma2.graph, coset_vertex(ctx2, "Y", IDENTITY), "Y")
    assert d.layers == EXPECTED_LAYERS_Y_N2
    assert sum(d.layers) == 512


def test_layers_k44(ctx2):
    q = quotient_by_derived(ctx2)
    assert distance_layers(q, 0).layers == [1, 4, 3]


def test_layers_disconnected_reports_unreachable():
    g = from_pairs(4, [(0, 1), (2, 3)])
    d = distance_layers(g, 0)
    assert d.layers == [1, 1]
    assert d.unreachable == 2


# -- equitable refinement -----------------------------------------------------------------

def test_equitable_k44_single_seed(ctx2):
    # K44 is walk-regular: the all-in-one seed is already equitable
    q = quotient_by_derived(ctx2)
    part = equitable_refinement(q, [list(range(8))])
    assert [len(c) for c in part.cells] == [8]
    assert part.counts == [[4]]


def test_equitable_refines_seed():
    # path 0-1-2: seed all-in-one splits ends from middle
    g = from_pairs(3, [(0, 1), (1, 2)])
    part = equitable_refinement(g, [[0, 1, 2]])
    assert sorted(len(c) for c in part.cells) == [1, 2]


def reference_refinement(g, seed):
    """Reference: per-vertex re-ranking by (color, neighbor-count vector)."""
    color = {v: i for i, cell in enumerate(seed) for v in cell}
    ncol = len(seed)
    while True:
        sig = {}
        for v in range(g.num_vertices):
            counts = [0] * ncol
            for w in g.neighbors(v):
                counts[color[int(w)]] += 1
            sig[v] = (color[v], tuple(counts))
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: rank[sig[v]] for v in sig}
        if len(rank) == ncol:
            return [color[v] for v in range(g.num_vertices)]
        ncol = len(rank)


@pytest.mark.parametrize("seed", range(10))
def test_equitable_matches_reference(seed):
    rng = random.Random(seed)
    nv = rng.randint(2, 40)
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)
             if rng.random() < 0.2] or [(0, 1)]
    g = from_pairs(nv, pairs)
    order = rng.sample(range(nv), nv)
    cut = rng.randint(1, nv)
    seed_cells = [order[:cut], order[cut:]] if cut < nv else [order]
    part = equitable_refinement(g, seed_cells)
    assert part.cell_of.tolist() == reference_refinement(g, seed_cells)


def test_refined_diagram_x(ctx2, sigma2):
    d = refined_diagram(sigma2.graph, coset_vertex(ctx2, "X", IDENTITY), "X")
    assert [sorted(c) for c in d.cells] == EXPECTED_CELLS_X_N2


def test_refined_diagram_y(ctx2, sigma2):
    d = refined_diagram(sigma2.graph, coset_vertex(ctx2, "Y", IDENTITY), "Y")
    assert [sorted(c) for c in d.cells] == EXPECTED_CELLS_Y_N2
    # the distance-4 split: the 9-cell points only backwards
    backwards_only = [(d_, s) for (d_, s, d2, s2, cnt) in d.cell_edges
                      if d_ == 4 and s == 9 and d2 == 5]
    assert backwards_only == []


# The full n=2 refined diagrams, cells in order and every cell_edges row,
# as the per-vertex refinement computed them before the vectorized one.
REFINED_N2 = {
    "X": (
        [[1], [4], [12], [36], [54], [108], [108], [108], [81]],
        [
        (0, 1, 1, 4, 4), (1, 4, 0, 1, 1), (1, 4, 2, 12, 3), (2, 12, 1, 4, 1),
        (2, 12, 3, 36, 3), (3, 36, 2, 12, 1), (3, 36, 4, 54, 3),
        (4, 54, 3, 36, 2), (4, 54, 5, 108, 2), (5, 108, 4, 54, 1),
        (5, 108, 6, 108, 3), (6, 108, 5, 108, 3), (6, 108, 7, 108, 1),
        (7, 108, 6, 108, 1), (7, 108, 8, 81, 3), (8, 81, 7, 108, 4),
        ]),
    "Y": (
        [[1], [4], [12], [36], [72, 9], [108], [108, 27], [108], [27]],
        [
        (0, 1, 1, 4, 4), (1, 4, 0, 1, 1), (1, 4, 2, 12, 3), (2, 12, 1, 4, 1),
        (2, 12, 3, 36, 3), (3, 36, 2, 12, 1), (3, 36, 4, 72, 2),
        (3, 36, 4, 9, 1), (4, 72, 3, 36, 1), (4, 72, 5, 108, 3),
        (4, 9, 3, 36, 4), (5, 108, 4, 72, 2), (5, 108, 6, 108, 1),
        (5, 108, 6, 27, 1), (6, 108, 5, 108, 1), (6, 108, 7, 108, 3),
        (6, 27, 5, 108, 4), (7, 108, 6, 108, 3), (7, 108, 8, 27, 1),
        (8, 27, 7, 108, 4),
        ]),
}


@pytest.mark.parametrize("side", ["X", "Y"])
def test_refined_diagram_full(ctx2, sigma2, side):
    cells, edges = REFINED_N2[side]
    d = refined_diagram(sigma2.graph, coset_vertex(ctx2, side, IDENTITY), side)
    assert d.cells == cells
    assert d.cell_edges == edges


def test_equitable_seed_validation(ctx2, sigma2):
    with pytest.raises(ValueError):
        equitable_refinement(sigma2.graph, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        equitable_refinement(sigma2.graph, [[0, 1]])


# -- ball identity ----------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_ball_radius_zero(n):
    assert ball_intersect_derived(context(n), 0) == [IDENTITY]


def test_ball_radius_two(ctx2):
    assert ball_intersect_derived(ctx2, 2) == [IDENTITY]


@pytest.mark.parametrize("n,count", [
    (2, 9), (3, 49), (4, 225), (5, 961), (6, 3969),
])
def test_ball_radius_four(n, count):
    ctx = context(n)
    ball = ball_intersect_derived(ctx, 4)
    square = commutator_square(ctx)
    assert len(square) == count
    assert set(ball) == set(square) | {IDENTITY}


def test_ball_negative_radius(ctx2):
    with pytest.raises(ValueError):
        ball_intersect_derived(ctx2, -1)


@pytest.mark.parametrize("n,max_radius,count", [(3, 5, 197), (4, 4, 226)])
def test_ball_matches_a_scalar_closure(n, max_radius, count):
    """At ranks where no Cayley graph is built, the meet-in-the-middle
    ball equals, radius by radius, the derived part of the ball that a set
    closure over the scalar products s*z reaches."""
    ctx = context(n)
    s_list = graphs.connection_set(ctx)
    ball = frontier = {IDENTITY}
    for radius in range(max_radius + 1):
        if radius:
            frontier = {mul(ctx, s, z) for z in frontier
                        for s in s_list} - ball
            ball = ball | frontier
        derived = sorted((e for e in ball if e.a == e.b == 0), key=ctx.pack)
        assert ball_intersect_derived(ctx, radius) == derived, radius
    assert len(derived) == count


@pytest.mark.parametrize("radius", range(5))
def test_ball_with_prebuilt_gamma(ctx2, radius):
    """The meet-in-the-middle ball equals the ball of the BFS over the
    rows of the built Cayley graph (whose vertex ids are the packed
    elements)."""
    dist = bfs_distances(build_gamma(ctx2), 0)
    ball = np.flatnonzero((dist >= 0) & (dist <= radius))
    assert ball_intersect_derived(ctx2, radius) == \
        [ctx2.unpack(int(z)) for z in ball if not z & 0xF]


def test_commutator_square_distinct(ctx2):
    # the commutators [x,y] are pairwise distinct (injective w-part)
    sq = commutator_square(ctx2)
    assert len({e.m for e in sq}) == 9


# -- semisymmetry certificate --------------------------------------------------------------------

def test_certificate_passes(ctx2, sigma2):
    cert = semisymmetry_certificate(
        edge_regular_witness(ctx2, sigma2, generator_actions(ctx2, sigma2)),
        check_local_2at(ctx2),
        layer_certificate(sigma2.graph, coset_vertex(ctx2, "X", IDENTITY),
                          coset_vertex(ctx2, "Y", IDENTITY)))
    assert cert["pass"]
    assert cert["edge_transitive"]
    assert cert["intransitivity_certificate"] == "layer-profile"
    assert cert["layers_X"] == EXPECTED_LAYERS_X_N2
    assert cert["layers_Y"] == EXPECTED_LAYERS_Y_N2
    # first difference at distance 4: 54 vs 81
    first_diff = next(i for i, (a, b) in enumerate(
        zip(cert["layers_X"], cert["layers_Y"])) if a != b)
    assert first_diff == 4
    assert (cert["layers_X"][4], cert["layers_Y"][4]) == (54, 81)


def test_certificate_inconclusive_on_k44(ctx2):
    # K44 is vertex-transitive: equal profiles, correctly inconclusive
    q = quotient_by_derived(ctx2)
    lc = layer_certificate(q, 0, 4)
    assert lc["certificate"] == "inconclusive"
    assert lc["layers_u"] == lc["layers_v"] == [1, 4, 3]


def test_is_permutation_compares_in_the_ids_dtype(peak_alloc):
    # a sorted copy and the ids, both int32, and the bool comparison: no
    # int64 array of the ids
    perm = np.random.default_rng(0).permutation(1 << 16).astype(np.int32)
    assert is_permutation(perm)
    assert peak_alloc(lambda: is_permutation(perm)) \
        <= 2 * perm.nbytes + len(perm) + 4096
    broken = perm.copy()
    broken[0] = broken[1]
    assert not is_permutation(broken)
