"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Every tolerance is exact; resource-heavy n=3 halves carry the slow
marker but run in a default pytest invocation."""

import hashlib
import random

import numpy as np
import pytest

from mixdih import graphs, hall
from mixdih.autgroup import automorphism_group_order
from mixdih.bulk import packed_ops
from mixdih.graphs import (
    build_gamma,
    build_sigma,
    coset_vertex,
    export_graph,
    intersection_graph,
    is_connected,
    line_graph,
    maximal_cliques,
    quotient_by_derived,
)
from mixdih.group import (
    Element,
    IDENTITY,
    abelianization,
    context,
    derived_basis,
    enumerate_elements,
    mul,
    verify_presentation,
)
from mixdih.symmetry import (
    ball_intersect_derived,
    check_local_2at,
    commutator_square,
    edge_regular_witness,
    generator_actions,
    layer_certificate,
    refined_diagram,
    semisymmetry_certificate,
)
from mixdih.verify import (
    AUT_ORDER_N2,
    EXPECTED_CELLS_X_N2,
    EXPECTED_CELLS_Y_N2,
    EXPECTED_LAYERS_X_N2,
    EXPECTED_LAYERS_Y_N2,
    check_abelianization_hom,
    check_class3,
    check_double_comm_landing,
    check_gl_action,
    check_h3_central,
    check_jacobi,
    check_product_formula,
    check_quotient_cover,
    check_vertex_orbits_sides,
    check_commutator_symmetry,
    check_witt_hall,
    check_y_absorption,
)

SAMPLES = 10**4


@pytest.fixture(scope="module")
def ctx2():
    return context(2)


@pytest.fixture(scope="module")
def ctx3():
    return context(3)


@pytest.fixture(scope="module")
def sigma2(ctx2):
    return build_sigma(ctx2)


@pytest.fixture(scope="module")
def sigma3(ctx3):
    # built once for the module: Sigma_3 has 2^22 vertices and 2^24 edges
    return build_sigma(ctx3)


@pytest.fixture(scope="module")
def gamma2(ctx2):
    return build_gamma(ctx2)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, name


def test_criterion_01_group_order(ctx2):
    elems = list(enumerate_elements(ctx2))
    distinct = len(set(elems)) == 1024 and len(elems) == 1024
    ops = packed_ops(ctx2)
    z = ops.all_elements()
    table = ops.mul(np.repeat(z, 1024), np.tile(z, 1024)).reshape(1024, 1024)
    ident = np.arange(1024, dtype=np.uint32)
    closed = bool(np.all(np.sort(table, axis=1) == ident)
                  and np.all(np.sort(table, axis=0) == ident[:, None]))
    formula = all(context(n).total_bits == (n**3 + n**2 + 4 * n) // 2
                  for n in range(2, 7))
    report("criterion-01 group order and closure",
           distinct and closed and formula,
           "1024 normal forms, latin square, formula n=2..6")


def test_criterion_02_presentation(ctx2, ctx3):
    ok2 = verify_presentation(ctx2)["pass"]
    ok3 = verify_presentation(ctx3)["pass"]
    report("criterion-02 presentation relators", ok2 and ok3, "n=2 and n=3")


def test_criterion_03_structure(ctx2, span):
    derived = span(ctx2, derived_basis(ctx2))
    kernel = {h for h in enumerate_elements(ctx2) if h.a == 0 and h.b == 0}
    images = {abelianization(ctx2, h) for h in enumerate_elements(ctx2)}
    ok = derived == kernel and len(derived) == 64 and len(images) == 2**4
    report("criterion-03 derived subgroup structure", ok,
           "|H'|=64 as commutator span; quotient C2^4")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_04_identity_suites(n):
    ctx = context(n)
    checks = {
        "jacobi": check_jacobi,
        "witt-hall": check_witt_hall,
        "class3": check_class3,
        "h3-central": check_h3_central,
        "double-comm-landing": check_double_comm_landing,
        "symmetry-prop1": check_commutator_symmetry,
        "y-absorption-prop4": check_y_absorption,
        "product-formula-prop6": check_product_formula,
        "abelianization-hom": check_abelianization_hom,
    }
    failures = {}
    for name, fn in checks.items():
        status, _, actual = fn(ctx, SAMPLES,
                               random.Random(f"acc:{name}:{n}"), {})
        if status != "pass":
            failures[name] = actual
    report(f"criterion-04 identity suites n={n}", not failures,
           f"{len(checks)} batteries x {SAMPLES} samples")


def test_criterion_05_graphs(ctx2, sigma2, gamma2):
    g = sigma2.graph
    ok = (g.num_vertices == 512 and g.num_edges == 1024
          and set(g.degrees().tolist()) == {4}
          and int((g.sides == 0).sum()) == 256
          and int((g.sides == 1).sum()) == 256
          and gamma2.num_vertices == 1024
          and set(gamma2.degrees().tolist()) == {6}
          and is_connected(gamma2))
    report("criterion-05 graph parameters", ok,
           "sigma 512/1024/4 bipartite, gamma 1024/valency 6 connected")


def test_criterion_06_clique_line_duality(ctx2, sigma2, gamma2):
    cliques = maximal_cliques(gamma2)
    sizes_ok = len(cliques) == 512 and all(len(c) == 4 for c in cliques)
    ids = []
    cosets_ok = True
    for c in cliques:
        z0 = ctx2.unpack(c[0])
        side = None
        for cand in ("X", "Y"):
            members = {ctx2.pack(mul(ctx2, Element(a=s) if cand == "X"
                                     else Element(b=s), z0))
                       for s in range(4)}
            if members == set(c):
                side = cand
                break
        if side is None:
            cosets_ok = False
            break
        ids.append(coset_vertex(ctx2, side, z0))
    cg = intersection_graph(maximal_cliques(gamma2))
    permv = np.array(ids)
    cu, cv = cg.edge_array()
    su, sv = sigma2.graph.edge_array()
    nv = np.int64(512)
    cg_iso = bool(np.array_equal(
        np.sort(np.minimum(permv[cu], permv[cv]) * nv
                + np.maximum(permv[cu], permv[cv])),
        np.sort(su * nv + sv)))
    lg = line_graph(sigma2.graph)
    u, v = sigma2.edge_ends(packed_ops(ctx2).all_elements())
    phi = np.empty(1024, dtype=np.int64)
    phi[np.lexsort((v, u))] = np.arange(1024)  # z -> line-graph vertex
    gu, gv = gamma2.edge_array()
    lu, lv = lg.edge_array()
    ne = np.int64(1024)
    lg_iso = bool(np.array_equal(
        np.sort(np.minimum(phi[gu], phi[gv]) * ne
                + np.maximum(phi[gu], phi[gv])),
        np.sort(lu * ne + lv)))
    report("criterion-06 clique/line duality",
           sizes_ok and cosets_ok and cg_iso and lg_iso,
           "512 coset cliques; clique graph ~ sigma; line graph ~ gamma")


def _connected_cover(ctx, sigma):
    """The voltages' cycle rank is u, and the built coset graph is
    connected: two routes to one claim."""
    _, exp, act = check_quotient_cover(ctx, 1, random.Random(0), {})
    rank_full = act["cycle_rank"] == exp["cycle_rank"] == ctx.dim_w + ctx.dim_t
    return rank_full and is_connected(sigma.graph)


def test_criterion_07_quotient_n2(ctx2, sigma2):
    q = quotient_by_derived(ctx2)
    complete = all(q.has_edge(u, 4 + v) for u in range(4) for v in range(4))
    ok = (q.num_vertices == 8 and q.num_edges == 16 and complete
          and set(q.degrees().tolist()) == {4}
          and _connected_cover(ctx2, sigma2))
    report("criterion-07 derived quotient n=2", ok,
           "K_{4,4}, valency kept, a connected cover")


@pytest.mark.slow
def test_criterion_07_quotient_n3(ctx3, sigma3):
    q = quotient_by_derived(ctx3)
    complete = all(q.has_edge(u, 8 + v) for u in range(8) for v in range(8))
    ok = (q.num_vertices == 16 and q.num_edges == 64 and complete
          and set(q.degrees().tolist()) == {8}
          and _connected_cover(ctx3, sigma3))
    report("criterion-07 derived quotient n=3 (stretch)", ok,
           "K_{8,8}, valency kept, a connected cover")


class _Digest:
    """A text sink that only hashes what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode("ascii"))


@pytest.mark.slow
def test_sigma3_export_digest(sigma3):
    # the digest of the 260 MB edge list that a per-edge writer recorded
    sink = _Digest()
    export_graph(sigma3.graph, sink, "edgelist", n=3, kind="sigma")
    assert sink.sha.hexdigest() == (
        "3aa317d683e5b3d3bc718a1cbb9d3d4b06e8cbc3f09a167a5eb084ad9c3883f7")


@pytest.mark.slow
def test_sigma3_build_and_bfs_stay_near_the_table(ctx3, sigma3, peak_alloc):
    # each loop holds, per block in flight, a few blocks of ROW_CHUNK rows
    # of 2^3 int32 entries above the 128 MiB table, and the BFS also its
    # byte record: at most 10 blocks per worker each, which keeps Sigma_3
    # within 20 MiB of its table even on MAX_WORKERS threads
    block = graphs.ROW_CHUNK * 8 * 4
    assert 10 * block * graphs.MAX_WORKERS <= 20 << 20
    budget = 10 * block * graphs.WORKERS
    out = []
    build = peak_alloc(lambda: out.append(build_sigma(ctx3)))
    assert build - out[0].graph.rows.nbytes <= budget
    out.clear()  # the second table is freed before the BFS
    g = sigma3.graph
    bfs = peak_alloc(lambda: out.append(graphs.bfs_layers(g, 0)))
    assert out[0][1] == 0 and bfs - (g.num_vertices + 1) <= budget


@pytest.mark.parametrize("n,arcs", [(2, 12), (3, 56)])
def test_criterion_08_local_2at(n, arcs):
    rep = check_local_2at(context(n))
    ok = rep["pass"] and all(rep["sides"][s]["two_arcs"] == arcs
                             for s in ("X", "Y"))
    report(f"criterion-08 local 2-arc-transitivity n={n}", ok,
           f"single orbit on {arcs} rooted 2-arcs per side")


def test_criterion_09_semisymmetry(ctx2, sigma2):
    cert = semisymmetry_certificate(
        edge_regular_witness(ctx2, sigma2, generator_actions(ctx2, sigma2)),
        check_local_2at(ctx2),
        layer_certificate(sigma2.graph, coset_vertex(ctx2, "X", IDENTITY),
                          coset_vertex(ctx2, "Y", IDENTITY)))
    layers_ok = (cert["layers_X"] == EXPECTED_LAYERS_X_N2
                 and cert["layers_Y"] == EXPECTED_LAYERS_Y_N2)
    differ_at_4 = (cert["layers_X"][4], cert["layers_Y"][4]) == (54, 81)
    ok = (cert["pass"] and cert["edge_transitive"] and layers_ok
          and differ_at_4)
    if not layers_ok:
        print("BFS/reference mismatch:",
              "X", cert["layers_X"], "vs", EXPECTED_LAYERS_X_N2,
              "Y", cert["layers_Y"], "vs", EXPECTED_LAYERS_Y_N2)
    report("criterion-09 semisymmetry certificate", ok,
           "profiles differ first at distance 4 (54 vs 81)")


@pytest.mark.slow
def test_criterion_09_side_orbits_n3(ctx3, sigma3):
    status, _, actual = check_vertex_orbits_sides(
        ctx3, SAMPLES, random.Random(0), {"sigma": sigma3})
    ok = status == "pass" and actual == {"orbit_sizes": [2**21, 2**21]}
    report("criterion-09 vertex orbits are the sides n=3", ok,
           "the group's right action has two orbits of 2^21 vertices")


@pytest.mark.slow
def test_criterion_09_edge_regular_n3(ctx3, sigma3):
    w = edge_regular_witness(ctx3, sigma3, generator_actions(ctx3, sigma3))
    ok = w == {"generators": 6, "edges": 2**24, "row_mismatches": 0,
               "action_mismatches": 0, "edge_transitive": True}
    report("criterion-09 group regular on the edges n=3", ok,
           "6 generators moved every one of 2^24 edges as the bijection says")


@pytest.mark.slow
def test_criterion_08_gl_action_n3(ctx3, sigma3):
    status, _, actual = check_gl_action(
        ctx3, SAMPLES, random.Random(0), {"sigma": sigma3})
    ok = status == "pass" and actual == {"failures": 0, "samples": 4}
    report("criterion-08 GL x GL generator automorphisms n=3", ok,
           "four generator pairs fix both base vertices")


@pytest.mark.parametrize("n,count", [(2, 9), (3, 49)])
def test_criterion_10_ball(n, count):
    ctx = context(n)
    ball = ball_intersect_derived(ctx, 4)
    square = commutator_square(ctx)
    ok = set(ball) == set(square) | {IDENTITY} and len(square) == count
    report(f"criterion-10 radius-4 ball n={n}", ok,
           f"ball meets derived subgroup in 1 + {count} elements")


def test_criterion_11_hall():
    counts_ok = (len(hall.enumerate_basic_commutators(4, 2)) == 6
                 and len(hall.enumerate_basic_commutators(4, 3)) == 20)
    dims_ok = True
    for n in range(2, 11):
        dt = hall.dimension_table(n)
        r = 2 * n
        dims_ok = dims_ok and dt.u + dt.v == r * (r - 1) * (2 * r - 1) // 6
    brute_ok = all(
        hall.count_tuples(n, k) == len(hall.tuple_set(n, k))
        for n in range(2, 9) for k in hall.TUPLE_KINDS)
    brute_ok = brute_ok and all(
        len(hall.enumerate_basic_commutators(r, 2)) == hall.bc2_count(r)
        and len(hall.enumerate_basic_commutators(r, 3)) == hall.bc3_count(r)
        for r in range(1, 11))
    report("criterion-11 hall arithmetic",
           counts_ok and dims_ok and brute_ok,
           "counts at r=4; u+v identity n=2..10; enumeration agrees")


def test_criterion_12_stretch_aut(ctx2, sigma2):
    order = automorphism_group_order(sigma2.graph)
    rdx = refined_diagram(sigma2.graph, coset_vertex(ctx2, "X", IDENTITY), "X")
    rdy = refined_diagram(sigma2.graph, coset_vertex(ctx2, "Y", IDENTITY), "Y")
    cells_ok = ([sorted(c) for c in rdx.cells] == EXPECTED_CELLS_X_N2
                and [sorted(c) for c in rdy.cells] == EXPECTED_CELLS_Y_N2)
    report("criterion-12 automorphism group (stretch)",
           order == AUT_ORDER_N2 and cells_ok,
           f"|Aut| = {order} = 2^15*3^5; diagram cells match")
