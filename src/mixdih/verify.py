"""Named verification batteries over the group, graph and symmetry layers.

Each check is a pure function returning (status, expected, actual); the
runner wraps them into a deterministic report.  Randomized checks draw
from a per-check seeded stream so reports are reproducible; resource-capped
checks report "skip", never "fail".
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import graphs as gr
from . import hall
from . import symmetry as sym
from .autgroup import automorphism_group_order
from .bulk import element_dtype, packed_ops
from .group import (
    CapExceededError,
    Element,
    GroupContext,
    IDENTITY,
    abelianization,
    comm,
    conj,
    context,
    derived_basis,
    enumerate_elements,
    evaluate_word,
    format_element,
    gf2_rank,
    gl_enumerate,
    gl_generator_pairs,
    induced_automorphism,
    inv,
    mul,
    order_of,
    parse_element,
    subgroup_closure,
    verify_presentation,
    xgen,
    ygen,
)

EXPECTED_LAYERS_X_N2 = [1, 4, 12, 36, 54, 108, 108, 108, 81]
EXPECTED_LAYERS_Y_N2 = [1, 4, 12, 36, 81, 108, 135, 108, 27]
# Refined equitable cells per distance (sizes, sorted within each layer).
EXPECTED_CELLS_X_N2 = [[1], [4], [12], [36], [54], [108], [108], [108], [81]]
EXPECTED_CELLS_Y_N2 = [[1], [4], [12], [36], [9, 72], [108], [27, 108], [108], [27]]
AUT_ORDER_N2 = 2**15 * 3**5
EXHAUSTIVE_CAP_BITS = 12  # group enumerations, cliques and line graphs

SUITES = ("core", "graphs", "symmetry", "all")


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skip | inconclusive
    expected: object
    actual: object
    runtime_ms: int = 0


@dataclass
class VerificationReport:
    n: int
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "pass" if all(c.status != "fail" for c in self.checks) else "fail"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "suite": self.suite,
            "checks": [
                {"name": c.name, "status": c.status, "expected": c.expected,
                 "actual": c.actual, "runtime_ms": c.runtime_ms}
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _rand_elem(ctx: GroupContext, rng: random.Random) -> Element:
    return ctx.unpack(rng.getrandbits(ctx.total_bits))


def _tally(ok: np.ndarray) -> tuple[str, object, object]:
    total = len(ok)
    fails = total - int(np.count_nonzero(ok))
    return ("pass" if fails == 0 else "fail",
            {"failures": 0, "samples": total},
            {"failures": fails, "samples": total})


def _count_failures(pairs) -> tuple[str, object, object]:
    return _tally(np.fromiter(pairs, dtype=bool))


# -- core checks -------------------------------------------------------------

def check_dimension_formula(ctx, samples, rng, cache):
    expected = [(n, (n**3 + n**2 + 4 * n) // 2) for n in range(2, 7)]
    actual = [(n, context(n).total_bits) for n in range(2, 7)]
    return ("pass" if expected == actual else "fail", expected, actual)


def check_normal_form_enumeration(ctx, samples, rng, cache):
    if ctx.total_bits > EXHAUSTIVE_CAP_BITS:
        raise CapExceededError("full enumeration kept to 2^12")
    seen = {ctx.pack(h) for h in enumerate_elements(ctx)}
    want = 1 << ctx.total_bits
    return ("pass" if len(seen) == want else "fail", want, len(seen))


def check_multiplication_latin_square(ctx, samples, rng, cache):
    """Every row and every column of the product table is a permutation,
    checked one block of rows g at a time: the sorted products g*z and
    z*g, row g of the table and column g, must both be z."""
    if ctx.total_bits > EXHAUSTIVE_CAP_BITS:
        raise CapExceededError("full multiplication table kept to 2^12")
    ops = packed_ops(ctx)
    z = ops.all_elements()
    step = max(1, gr.ROW_CHUNK >> ctx.total_bits)

    def permutes(block):
        return bool(np.all(np.sort(block, axis=1) == z))
    ok = all(permutes(ops.mul(g, z)) and permutes(ops.mul(z, g))
             for g in (z[lo:lo + step, None] for lo in range(0, len(z), step)))
    return ("pass" if ok else "fail", "rows and columns are permutations",
            "ok" if ok else "not a latin square")


def check_presentation(ctx, samples, rng, cache):
    rep = verify_presentation(ctx)
    bad = [f["family"] for f in rep["families"] if not f["pass"]]
    return ("pass" if rep["pass"] else "fail",
            {"failing_families": []}, {"failing_families": bad})


# -- identity batteries --------------------------------------------------------
#
# Each random battery states its identity once, as a function over an ops
# object that maps arrays of packed elements to per-sample verdicts.  The
# samples are drawn as arrays from a numpy Generator seeded off the check's
# own stream.  Every sample runs on PackedOps (bulk.py), at every rank, and
# the group.py kernel, through ScalarOps, recomputes the first
# CROSS_CHECK_SAMPLES of them: a sample fails when its identity fails or
# when any value the identity computed differs between the two kernels.

CROSS_CHECK_SAMPLES = 256


def _generator(rng: random.Random) -> np.random.Generator:
    return np.random.default_rng(rng.getrandbits(64))


def _draw(ctx: GroupContext, gen: np.random.Generator, count: int,
          bits: int | None = None, shift: int = 0) -> np.ndarray:
    """count packed values whose `bits` bits from bit `shift` up are
    uniformly random, the rest zero (default: whole elements)."""
    bits = ctx.total_bits if bits is None else bits
    dtype = element_dtype(ctx)
    out = np.zeros(count, dtype=dtype)
    for low in range(0, bits, 32):
        word = gen.integers(0, 1 << min(32, bits - low), size=count,
                            dtype=np.uint64)
        out |= word.astype(dtype) << low
    return out << shift


def _draw_letters(ctx: GroupContext, gen: np.random.Generator,
                  shape: tuple[int, int]) -> np.ndarray:
    """Packed generator letters: a uniform kind (x, y, w or t), then
    uniform 0-based indices, with i < k for t."""
    return 1 << _letter_positions(ctx, gen, shape).astype(element_dtype(ctx))


def _letter_positions(ctx: GroupContext, gen: np.random.Generator,
                      shape: tuple[int, int]) -> np.ndarray:
    """Bit positions of the letters of _draw_letters, as int16; its own
    function so that the draws are freed before the letters are built.

    Each draw is int64, the stream's dtype, and is cast to int16 at once.
    The kind selects by np.where, as np.choose would widen it to intp."""
    n = ctx.n

    def draw(low, high):
        return gen.integers(low, high, size=shape).astype(np.int16)
    kind, i, j = draw(0, 4), draw(0, n), draw(0, n)
    pair = _t_pair(gen, n, draw(1, n))  # t_(i,k,j) takes 1 <= i < k <= n
    # t: 2n + dim_w + pair*n + j, w: 2n + i*n + j, y: n + i, x: i
    pos = np.where(kind == 3, ctx.dim_w + n * pair, n * i) + (2 * n + j)
    return np.where(kind < 2, n * kind + i, pos)


def _t_pair(gen: np.random.Generator, n: int, ti: np.ndarray) -> np.ndarray:
    """pair_index(i, k) for each i in ti, with k drawn uniform in (i, n],
    entry by entry in order.  The draw widens an array bound to int64, so
    k is drawn ROW_CHUNK entries at a time."""
    tk = np.empty_like(ti)
    flat, out = ti.reshape(-1), tk.reshape(-1)
    for lo in range(0, flat.size, gr.ROW_CHUNK):
        out[lo:lo + gr.ROW_CHUNK] = gen.integers(
            flat[lo:lo + gr.ROW_CHUNK] + 1, n + 1)
    return (ti - 1) * (2 * n - ti) // 2 + (tk - ti - 1)


class ScalarOps:
    """The group.py kernel behind the array interface of PackedOps that
    the identity batteries use: every call unpacks each sample, runs the
    scalar function on it and packs the result."""

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx

    def _map(self, fn, *arrays) -> np.ndarray:
        ctx = self.ctx
        return np.array([ctx.pack(fn(ctx, *(ctx.unpack(int(z)) for z in zs)))
                         for zs in zip(*arrays)], dtype=element_dtype(ctx))

    def mul(self, g, h):
        return self._map(mul, g, h)

    def inv(self, h):
        return self._map(inv, h)

    def conj(self, g, h):
        return self._map(conj, g, h)

    def comm(self, g, h):
        return self._map(comm, g, h)

    def evaluate_word(self, words):
        ctx = self.ctx
        symbols = ctx.bit_symbols
        return np.array([ctx.pack(evaluate_word(
            ctx, [symbols[int(g).bit_length() - 1] for g in row if g]))
            for row in words], dtype=element_dtype(ctx))

    def _coset_key(self, side, z):
        # a side's keys count from the id of its base vertex
        ctx = self.ctx
        first = gr.coset_vertex(ctx, side, IDENTITY)
        return np.array([gr.coset_vertex(ctx, side, ctx.unpack(int(h))) - first
                         for h in z], dtype=element_dtype(ctx))

    def x_coset_key(self, z):
        return self._coset_key("X", z)

    def y_coset_key(self, z):
        return self._coset_key("Y", z)


class _Recorded:
    """Forwards to an ops object and keeps a copy of the first `keep`
    samples of every array it returns (a view would keep the whole array
    alive)."""

    def __init__(self, ops, keep: int):
        self.ops, self.keep, self.values = ops, keep, []

    def __getattr__(self, name):
        fn = getattr(self.ops, name)

        def call(*args):
            out = fn(*args)
            self.values.append(out[:self.keep].copy())
            return out
        return call


def _battery(ctx: GroupContext, identity, *samples: np.ndarray):
    """Tally identity(ops, *samples), a per-sample bool array, on
    PackedOps, with the scalar cross-check on the leading samples."""
    keep = min(len(samples[0]), CROSS_CHECK_SAMPLES)
    full = _Recorded(packed_ops(ctx), keep)
    sub = _Recorded(ScalarOps(ctx), keep)
    ok = identity(full, *samples)
    ok[:keep] &= identity(sub, *(s[:keep] for s in samples))
    for p, s in zip(full.values, sub.values, strict=True):
        ok[:keep] &= p == s
    return _tally(ok)


def _whole_elements(ctx, gen, count, k):
    return [_draw(ctx, gen, count) for _ in range(k)]


def check_jacobi(ctx, samples, rng, cache):
    def jacobi(ops, a, b, c):
        prod = ops.mul(ops.mul(ops.comm(ops.comm(a, b), c),
                               ops.comm(ops.comm(b, c), a)),
                       ops.comm(ops.comm(c, a), b))
        return prod == 0
    return _battery(ctx, jacobi,
                    *_whole_elements(ctx, _generator(rng), samples, 3))


def check_witt_hall(ctx, samples, rng, cache):
    def witt_hall(ops, x, y, z):
        def term(u, v, w):
            return ops.conj(ops.comm(ops.comm(u, ops.inv(v)), w), v)
        return ops.mul(ops.mul(term(x, y, z), term(y, z, x)),
                       term(z, x, y)) == 0
    return _battery(ctx, witt_hall,
                    *_whole_elements(ctx, _generator(rng), samples, 3))


def check_class3(ctx, samples, rng, cache):
    def vanishes(ops, g, h, k, l):
        return ops.comm(ops.comm(ops.comm(g, h), k), l) == 0
    return _battery(ctx, vanishes,
                    *_whole_elements(ctx, _generator(rng), samples, 4))


def check_h3_central(ctx, samples, rng, cache):
    def fixed(ops, t, r):
        # t^r = t, written out so that r^-1 is one of the compared values
        return ops.mul(ops.inv(r), ops.mul(t, r)) == t
    gen = _generator(rng)
    t_only = _draw(ctx, gen, samples, ctx.dim_t, 2 * ctx.n + ctx.dim_w)
    return _battery(ctx, fixed, t_only, _draw(ctx, gen, samples))


def check_double_comm_landing(ctx, samples, rng, cache):
    below_t = (1 << (2 * ctx.n + ctx.dim_w)) - 1  # the a, b and m blocks
    def lands(ops, g, h, k):
        return (ops.comm(ops.comm(g, h), k) & below_t) == 0
    return _battery(ctx, lands,
                    *_whole_elements(ctx, _generator(rng), samples, 3))


def check_derived_involutions(ctx, samples, rng, cache):
    def involutions(ops, g, h):
        return (ops.mul(g, g) == 0) & (ops.comm(g, h) == 0)
    gen = _generator(rng)
    g, h = (_draw(ctx, gen, samples, ctx.dim_w + ctx.dim_t, 2 * ctx.n)
            for _ in range(2))
    return _battery(ctx, involutions, g, h)


def check_commutator_symmetry(ctx, samples, rng, cache):
    n = ctx.n
    def pairs():
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = comm(ctx, comm(ctx, xgen(ctx, i), ygen(ctx, j)),
                               xgen(ctx, k))
                    rhs = comm(ctx, comm(ctx, xgen(ctx, k), ygen(ctx, j)),
                               xgen(ctx, i))
                    yield lhs == rhs
    return _count_failures(pairs())


def check_y_absorption(ctx, samples, rng, cache):
    def absorbed(ops, a, b, b2):
        return ((ops.comm(ops.comm(b, a), b2) == 0)
                & (ops.comm(ops.comm(a, b), b2) == 0))
    gen = _generator(rng)
    a = _draw(ctx, gen, samples)
    b, b2 = (_draw(ctx, gen, samples, ctx.n, ctx.n) for _ in range(2))
    return _battery(ctx, absorbed, a, b, b2)


def check_product_formula(ctx, samples, rng, cache):
    n = ctx.n
    seen = set()
    def pairs():
        for a in range(1 << n):
            for b in range(1 << n):
                c = comm(ctx, Element(a=a), Element(b=b))
                if a and b:
                    seen.add(c)
                yield c.m == ctx.outer(a, b) and c.a == 0 and c.b == 0
    status, exp, act = _count_failures(pairs())
    want = ((1 << n) - 1) ** 2
    if len(seen) != want:
        status = "fail"
    exp = {"m_part": "outer product", "distinct_commutators": want}
    act = {"m_part_failures": act["failures"], "distinct_commutators": len(seen)}
    return (status, exp, act)


def check_abelianization_hom(ctx, samples, rng, cache):
    ab = (1 << 2 * ctx.n) - 1  # the image in the derived quotient: (a, b)
    def homomorphism(ops, g, h):
        return (ops.mul(g, h) & ab) == ((g ^ h) & ab)
    return _battery(ctx, homomorphism,
                    *_whole_elements(ctx, _generator(rng), samples, 2))


def _associative(ops, g, h, k):
    return ops.mul(ops.mul(g, h), k) == ops.mul(g, ops.mul(h, k))


def check_associativity(ctx, samples, rng, cache):
    return _battery(ctx, _associative,
                    *_whole_elements(ctx, _generator(rng), 10 * samples, 3))


def check_associativity_exhaustive(ctx, samples, rng, cache):
    if ctx.total_bits > EXHAUSTIVE_CAP_BITS:
        raise CapExceededError("exhaustive-subset associativity kept small")
    subset = _draw(ctx, _generator(rng), 32)
    return _battery(ctx, _associative,
                    *subset[np.indices((32, 32, 32)).reshape(3, -1)])


def check_strategy_independence(ctx, samples, rng, cache):
    def independent(ops, words):
        halves = ops.mul(ops.evaluate_word(words[:, :10]),
                         ops.evaluate_word(words[:, 10:]))
        return ops.evaluate_word(words) == halves
    return _battery(ctx, independent,
                    _draw_letters(ctx, _generator(rng), (samples, 20)))


def check_inverse(ctx, samples, rng, cache):
    # the reversed normal-form word of h is its set bits, highest first
    bits = np.array([1 << p for p in reversed(range(ctx.total_bits))],
                    dtype=element_dtype(ctx))
    def involution(ops, h):
        h_inv = ops.inv(h)
        return ((ops.mul(h, h_inv) == 0)
                & (h_inv == ops.evaluate_word(h[:, None] & bits)))
    return _battery(ctx, involution, _draw(ctx, _generator(rng), samples))


def check_encoding_roundtrip(ctx, samples, rng, cache):
    def one():
        h = _rand_elem(ctx, rng)
        return parse_element(ctx, format_element(ctx, h)) == h
    return _count_failures(one() for _ in range(samples))


def check_coset_key_invariance(ctx, samples, rng, cache):
    def invariant(ops, h, gx, gy):
        return ((ops.x_coset_key(ops.mul(gx, h)) == ops.x_coset_key(h))
                & (ops.y_coset_key(ops.mul(gy, h)) == ops.y_coset_key(h)))
    gen = _generator(rng)
    h = _draw(ctx, gen, samples)
    gx = _draw(ctx, gen, samples, ctx.n)
    gy = _draw(ctx, gen, samples, ctx.n, ctx.n)
    return _battery(ctx, invariant, h, gx, gy)


def check_derived_structure(ctx, samples, rng, cache):
    u = ctx.n**2 * (ctx.n + 1) // 2
    basis = derived_basis(ctx)
    vectors = [h.m | (h.t << ctx.dim_w) for h in basis]
    rank = gf2_rank(vectors)
    in_derived = all(h.a == 0 and h.b == 0 for h in basis)
    exp = {"derived_order_exp": u, "basis_in_kernel": True}
    act = {"derived_order_exp": rank, "basis_in_kernel": in_derived}
    if ctx.total_bits <= EXHAUSTIVE_CAP_BITS:
        span = subgroup_closure(ctx, basis)
        kernel = {h for h in enumerate_elements(ctx) if h.a == 0 and h.b == 0}
        exp["span_equals_kernel"] = True
        act["span_equals_kernel"] = span == kernel
        exp["span_size"] = 1 << u
        act["span_size"] = len(span)
    return ("pass" if exp == act else "fail", exp, act)


def check_abelianization_kernel(ctx, samples, rng, cache):
    if ctx.total_bits > EXHAUSTIVE_CAP_BITS:
        raise CapExceededError("exhaustive kernel check kept to 2^12")
    kernel = 0
    images = set()
    for h in enumerate_elements(ctx):
        images.add(abelianization(ctx, h))
        if abelianization(ctx, h) == (0, 0):
            kernel += 1
    exp = {"kernel": 1 << (ctx.total_bits - 2 * ctx.n),
           "image": 1 << (2 * ctx.n)}
    act = {"kernel": kernel, "image": len(images)}
    return ("pass" if exp == act else "fail", exp, act)


def check_group_exponent(ctx, samples, rng, cache):
    if ctx.total_bits <= EXHAUSTIVE_CAP_BITS:
        orders = {order_of(ctx, h) for h in enumerate_elements(ctx)}
    else:
        orders = {order_of(ctx, _rand_elem(ctx, rng)) for _ in range(samples)}
        orders |= {1, order_of(ctx, mul(ctx, xgen(ctx, 1), ygen(ctx, 1)))}
    ok = orders <= {1, 2, 4} and max(orders) == 4
    return ("pass" if ok else "fail", {"orders": [1, 2, 4], "exponent": 4},
            {"orders": sorted(orders), "exponent": max(orders)})


def check_hall_counts(ctx, samples, rng, cache):
    rows = []
    ok = True
    for r in range(1, 11):
        e2 = len(hall.enumerate_basic_commutators(r, 2))
        e3 = len(hall.enumerate_basic_commutators(r, 3))
        ok = ok and e2 == hall.bc2_count(r) and e3 == hall.bc3_count(r)
        rows.append((r, e2, e3))
    return ("pass" if ok else "fail",
            {"closed_forms_match": True, "r4": (6, 20)},
            {"closed_forms_match": ok,
             "r4": (rows[3][1], rows[3][2])})


def check_hall_tuples(ctx, samples, rng, cache):
    ok = all(hall.count_tuples(n, k) == len(hall.tuple_set(n, k))
             for n in range(2, 9) for k in hall.TUPLE_KINDS)
    return ("pass" if ok else "fail", True, ok)


def check_hall_dimensions(ctx, samples, rng, cache):
    rows = []
    ok = True
    for n in range(2, 11):
        dt = hall.dimension_table(n)  # raises on u+v mismatch
        ok = ok and dt.u + dt.v == dt.m_fk
        rows.append((n, dt.u, dt.v, dt.m_fk))
    return ("pass" if ok else "fail", "u+v = m_fk for n in 2..10",
            {"ok": ok, "n2_row": rows[0]})


def check_hall_special_sets(ctx, samples, rng, cache):
    ok = all(hall.special_set_sizes(n).closed_form_consistent
             for n in range(2, 7))
    return ("pass" if ok else "fail", True, ok)


# -- graph checks -----------------------------------------------------------

# One cache per suite holds the coset graph and what several checks read.
def _cached(cache, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _gamma(ctx, cache):
    return _cached(cache, "gamma", lambda: gr.build_gamma(ctx))


def _sigma(ctx, cache):
    return _cached(cache, "sigma", lambda: gr.build_sigma(ctx))


def _actions(ctx, cache):
    return _cached(cache, "actions",
                   lambda: sym.generator_actions(ctx, _sigma(ctx, cache)))


def _permutations(ctx, cache):
    return _cached(cache, "permutations", lambda: [
        sym.is_permutation(p) for p in _actions(ctx, cache)])


def _witness(ctx, cache):
    return _cached(cache, "witness", lambda: sym.edge_regular_witness(
        ctx, _sigma(ctx, cache), _actions(ctx, cache)))


def _local_2at(ctx, cache):
    return _cached(cache, "local_2at", lambda: sym.check_local_2at(ctx))


def _base_vertices(ctx):
    return tuple(gr.coset_vertex(ctx, side, IDENTITY) for side in "XY")


def _layers(ctx, cache):
    sig = _sigma(ctx, cache)
    return _cached(cache, "layers", lambda: sym.layer_certificate(
        sig.graph, *_base_vertices(ctx)))


def _quotient(ctx, cache):
    return _cached(cache, "quotient",
                   lambda: gr.quotient_by_derived(ctx, _sigma(ctx, cache)))


def _valency(g):
    """The common degree of a regular graph, else its sorted degrees."""
    degs = g.degrees()
    low, high = int(degs.min()), int(degs.max())
    return low if low == high else np.unique(degs).tolist()


def check_cayley_stats(ctx, samples, rng, cache):
    gamma = _gamma(ctx, cache)
    val = 2 * ((1 << ctx.n) - 1)
    exp = {"vertices": 1 << ctx.total_bits,
           "edges": (1 << ctx.total_bits) * val // 2,
           "valency": val, "connected": True}
    act = {"vertices": gamma.num_vertices, "edges": gamma.num_edges,
           "valency": _valency(gamma), "connected": gr.is_connected(gamma)}
    return ("pass" if exp == act else "fail", exp, act)


def check_coset_graph_stats(ctx, samples, rng, cache):
    sig = _sigma(ctx, cache)
    g = sig.graph
    exp = {"vertices": 2 << (ctx.total_bits - ctx.n),
           "edges": 1 << ctx.total_bits, "valency": 1 << ctx.n,
           "halves": [1 << (ctx.total_bits - ctx.n)] * 2}
    act = {"vertices": g.num_vertices, "edges": g.num_edges,
           "valency": _valency(g),
           "halves": [int((g.sides == 0).sum()), int((g.sides == 1).sum())]}
    return ("pass" if exp == act else "fail", exp, act)


def check_edge_bijection(ctx, samples, rng, cache):
    sig = _sigma(ctx, cache)
    # exhaustive through the built rows, then sampled through the scalar
    # coset_vertex, which builds no array
    ok = (sig.graph.num_edges == 1 << ctx.total_bits
          and sig.row_mismatches == 0)
    zs = [_rand_elem(ctx, rng) for _ in range(min(samples, 200))]
    ok = ok and all(sig.graph.has_edge(gr.coset_vertex(ctx, "X", z),
                                       gr.coset_vertex(ctx, "Y", z))
                    for z in zs)
    return ("pass" if ok else "fail", "phi(z) = {X-coset(z), Y-coset(z)}",
            "ok" if ok else "mismatch")


def _clique_coset(ctx, clique):
    """The coset vertex that a clique of the Cayley graph is, else None:
    all 2^n members must name one coset of one side (scalar coset_vertex,
    independent of the packed tables that build both graphs)."""
    if len(clique) != 1 << ctx.n:
        return None
    for side in "XY":
        names = {gr.coset_vertex(ctx, side, ctx.unpack(z)) for z in clique}
        if len(names) == 1:
            return names.pop()
    return None


def check_clique_duality(ctx, samples, rng, cache):
    if ctx.total_bits > EXHAUSTIVE_CAP_BITS:
        raise CapExceededError("clique enumeration kept to 2^12 vertices")
    gamma = _gamma(ctx, cache)
    sig = _sigma(ctx, cache)
    cliques = gr.maximal_cliques(gamma)
    exp = {"count": 2 << (ctx.total_bits - ctx.n), "size": 1 << ctx.n,
           "all_cosets": True, "clique_graph_isomorphic": True}
    coset_ids = [_clique_coset(ctx, c) for c in cliques]
    all_cosets = None not in coset_ids
    iso = all_cosets and sym.is_graph_automorphism(
        gr.intersection_graph(cliques), np.array(coset_ids), sig.graph)
    act = {"count": len(cliques),
           "size": len(cliques[0]) if cliques else 0,
           "all_cosets": all_cosets, "clique_graph_isomorphic": iso}
    return ("pass" if exp == act else "fail", exp, act)


def check_line_graph_duality(ctx, samples, rng, cache):
    if ctx.total_bits > EXHAUSTIVE_CAP_BITS:
        raise CapExceededError("line-graph comparison kept to 2^12 edges")
    gamma = _gamma(ctx, cache)
    sig = _sigma(ctx, cache)
    lg = gr.line_graph(sig.graph)
    # phi[z] is the position of the edge of z in sorted (u, v) order, the
    # line graph's vertex id: the inverse of the sorting permutation
    u, v = sig.edge_ends(packed_ops(ctx).all_elements())
    phi = np.argsort(np.lexsort((v, u)))
    ok = (sig.row_mismatches == 0  # the line graph reads the X rows only
          and lg.num_vertices == gamma.num_vertices
          and lg.num_edges == gamma.num_edges
          and sym.is_graph_automorphism(gamma, phi, lg))
    return ("pass" if ok else "fail",
            "line graph of the coset graph = Cayley graph under phi",
            "ok" if ok else "mismatch")


def check_quotient_cover(ctx, samples, rng, cache):
    sig = _sigma(ctx, cache)
    q = _quotient(ctx, cache)  # raises if fibers/valency break
    two_n = 1 << ctx.n
    complete = all(q.has_edge(u, two_n + v)
                   for u in range(two_n) for v in range(two_n))
    exp = {"vertices": 2 * two_n, "edges": two_n * two_n,
           "valency": two_n, "complete_bipartite": True,
           "fiber_size": sig.half // two_n}
    act = {"vertices": q.num_vertices, "edges": q.num_edges,
           "valency": _valency(q), "complete_bipartite": complete,
           "fiber_size": sig.half // two_n}
    return ("pass" if exp == act else "fail", exp, act)


def check_export_roundtrip(ctx, samples, rng, cache):
    import io
    q = _quotient(ctx, cache)
    buf1, buf2 = io.StringIO(), io.StringIO()
    gr.export_graph(q, buf1, "edgelist", n=ctx.n, kind="quotient")
    gr.export_graph(q, buf2, "edgelist", n=ctx.n, kind="quotient")
    deterministic = buf1.getvalue() == buf2.getvalue()
    nv, edges = gr.parse_edgelist(buf1.getvalue().splitlines())
    round_ok = nv == q.num_vertices and len(edges) == q.num_edges
    dot = io.StringIO()
    gr.export_graph(q, dot, "dot", n=ctx.n, kind="quotient")
    import re
    dot_edges = re.findall(r"(\d+) -- (\d+);", dot.getvalue())
    dot_ok = len(dot_edges) == q.num_edges
    ok = deterministic and round_ok and dot_ok
    return ("pass" if ok else "fail",
            {"deterministic": True, "edgelist_roundtrip": True, "dot_edges": q.num_edges},
            {"deterministic": deterministic, "edgelist_roundtrip": round_ok,
             "dot_edges": len(dot_edges)})


# -- symmetry checks -----------------------------------------------------------

def check_right_action_automorphism(ctx, samples, rng, cache):
    # With both witness counts 0 the built edge set E (rows of both sides)
    # is {{X(z), Y(z)}}, and p_h sends the edge of z to the edge of z*h,
    # so p_h(E) lies in E.  A permutation is injective on edges, so
    # p_h(E) = E.  Automorphisms compose, so the generators suffice.
    w = _witness(ctx, cache)
    edges_move = w["row_mismatches"] == w["action_mismatches"] == 0
    return _count_failures(edges_move and perm
                           for perm in _permutations(ctx, cache))


def check_right_action_homomorphism(ctx, samples, rng, cache):
    # The witness's action count is 0 iff p_s(K(u)) = K(u*s) for every
    # element u, generator s and side K.  Every vertex is some K(u), so by
    # induction over a word of h, p_h(K(u)) = K(u*h): p_g then p_h is p_gh.
    w = _witness(ctx, cache)
    exp = {"generators": 2 * ctx.n, "elements": 1 << ctx.total_bits,
           "mismatches": 0}
    act = {"generators": w["generators"], "elements": 1 << ctx.total_bits,
           "mismatches": w["action_mismatches"]}
    return ("pass" if act == exp else "fail", exp, act)


def check_edge_regular_action(ctx, samples, rng, cache):
    w = _witness(ctx, cache)
    exp = {"generators": 2 * ctx.n, "edges": 1 << ctx.total_bits,
           "row_mismatches": 0, "action_mismatches": 0,
           "edge_transitive": True}
    return ("pass" if w == exp else "fail", exp, w)


def check_gl_action(ctx, samples, rng, cache):
    sig = _sigma(ctx, cache)
    rx, ry = _base_vertices(ctx)
    if ctx.n == 2:
        mats = gl_enumerate(ctx.n)
        pair_iter = [(g1, g2) for g1 in mats for g2 in mats]
    else:
        # automorphisms compose, so the generator pairs suffice
        pair_iter = gl_generator_pairs(ctx.n)
    def one(pair):
        aut = induced_automorphism(ctx, *pair)
        p = sym.gl_action(ctx, sig, aut)
        return (p[rx] == rx and p[ry] == ry
                and sym.is_graph_automorphism(sig.graph, p))
    return _count_failures(one(pair) for pair in pair_iter)


def check_vertex_orbits_sides(ctx, samples, rng, cache):
    # A closure is an orbit only under permutations; two disjoint orbits
    # of half the vertices each cover the graph.
    sig = _sigma(ctx, cache)
    exp = {"orbit_sizes": [sig.half, sig.half]}
    bad = _permutations(ctx, cache).count(False)
    if bad:
        return ("fail", exp, {"non_permutations": bad})
    rx, ry = _base_vertices(ctx)
    orbits = [sym.orbit_closure(_actions(ctx, cache), [v],
                                sig.graph.num_vertices) for v in (rx, ry)]
    if orbits[0][ry]:  # one orbit holds both base vertices
        orbits.pop()
    act = {"orbit_sizes": sorted(int(np.count_nonzero(o)) for o in orbits)}
    return ("pass" if act == exp else "fail", exp, act)


def check_local_two_arc_transitivity(ctx, samples, rng, cache):
    rep = _local_2at(ctx, cache)
    exp = {"orbits": {"X": 1, "Y": 1},
           "two_arcs": (1 << ctx.n) * ((1 << ctx.n) - 1)}
    act = {"orbits": {s: rep["sides"][s]["orbits"] for s in ("X", "Y")},
           "two_arcs": rep["sides"]["X"]["two_arcs"]}
    return ("pass" if rep["pass"] else "fail", exp, act)


def check_distance_layers(ctx, samples, rng, cache):
    lc = _layers(ctx, cache)
    if ctx.n == 2:
        exp = {"layers_X": EXPECTED_LAYERS_X_N2,
               "layers_Y": EXPECTED_LAYERS_Y_N2, "differ": True}
    else:
        exp = {"differ": True}
    act = {"layers_X": lc["layers_u"], "layers_Y": lc["layers_v"],
           "differ": lc["layers_u"] != lc["layers_v"]}
    ok = all(act.get(k) == v for k, v in exp.items())
    return ("pass" if ok else "fail", exp, act)


def check_equitable_cells(ctx, samples, rng, cache):
    if ctx.n != 2:
        raise CapExceededError("reference cell values are for n=2")
    sig = _sigma(ctx, cache)
    rx, ry = _base_vertices(ctx)
    rdx = sym.refined_diagram(sig.graph, rx, "X")
    rdy = sym.refined_diagram(sig.graph, ry, "Y")
    act = {"X": [sorted(c) for c in rdx.cells],
           "Y": [sorted(c) for c in rdy.cells]}
    exp = {"X": EXPECTED_CELLS_X_N2, "Y": EXPECTED_CELLS_Y_N2}
    return ("pass" if exp == act else "fail", exp, act)


def check_ball_radius_2(ctx, samples, rng, cache):
    ball = sym.ball_intersect_derived(ctx, 2)
    ok = ball == [IDENTITY]
    return ("pass" if ok else "fail", {"elements": 1}, {"elements": len(ball)})


def check_ball_radius_4(ctx, samples, rng, cache):
    ball = sym.ball_intersect_derived(ctx, 4)
    square = sym.commutator_square(ctx)
    want = ((1 << ctx.n) - 1) ** 2
    ok = (set(ball) == set(square) | {IDENTITY}
          and len(square) == want)
    exp = {"ball_size": want + 1, "square_size": want, "equal": True}
    act = {"ball_size": len(ball), "square_size": len(square),
           "equal": set(ball) == set(square) | {IDENTITY}}
    return ("pass" if ok else "fail", exp, act)


def check_semisymmetry_certificate(ctx, samples, rng, cache):
    cert = sym.semisymmetry_certificate(
        _witness(ctx, cache), _local_2at(ctx, cache), _layers(ctx, cache))
    exp = {"edge_transitive": True,
           "intransitivity_certificate": "layer-profile"}
    act = {"edge_transitive": cert["edge_transitive"],
           "intransitivity_certificate": cert["intransitivity_certificate"]}
    status = "pass" if cert["pass"] else (
        "inconclusive" if cert["intransitivity_certificate"] == "inconclusive"
        else "fail")
    return (status, exp, act)


def check_aut_group_order(ctx, samples, rng, cache):
    if ctx.n != 2:
        raise CapExceededError("full automorphism search kept to n=2")
    sig = _sigma(ctx, cache)
    order = automorphism_group_order(sig.graph)
    return ("pass" if order == AUT_ORDER_N2 else "fail",
            AUT_ORDER_N2, order)


# -- suite runner ---------------------------------------------------------------

# perfbench/tracer.py (CHECK_LISTS) rebinds the entries of these four
# lists by name, so they stay module-level lists that run_suite calls
# through.
CORE_CHECKS = [
    ("dimension-formula", check_dimension_formula),
    ("normal-form-enumeration", check_normal_form_enumeration),
    ("multiplication-latin-square", check_multiplication_latin_square),
    ("presentation-relators", check_presentation),
    ("jacobi-identity", check_jacobi),
    ("witt-hall-identity", check_witt_hall),
    ("class3-vanishing", check_class3),
    ("h3-centrality", check_h3_central),
    ("double-commutator-landing", check_double_comm_landing),
    ("derived-involutions", check_derived_involutions),
    ("commutator-symmetry", check_commutator_symmetry),
    ("y-absorption", check_y_absorption),
    ("product-formula", check_product_formula),
    ("abelianization-homomorphism", check_abelianization_hom),
    ("associativity", check_associativity),
    ("associativity-exhaustive-subset", check_associativity_exhaustive),
    ("strategy-independence", check_strategy_independence),
    ("inverse-involution", check_inverse),
    ("encoding-roundtrip", check_encoding_roundtrip),
    ("canonical-coset-invariance", check_coset_key_invariance),
    ("derived-subgroup-structure", check_derived_structure),
    ("abelianization-kernel", check_abelianization_kernel),
    ("group-exponent", check_group_exponent),
    ("hall-basic-commutator-counts", check_hall_counts),
    ("hall-tuple-counts", check_hall_tuples),
    ("hall-dimension-identity", check_hall_dimensions),
    ("hall-special-sets", check_hall_special_sets),
]

GRAPH_CHECKS = [
    ("cayley-graph-stats", check_cayley_stats),
    ("coset-graph-stats", check_coset_graph_stats),
    ("edge-bijection", check_edge_bijection),
    ("clique-coset-duality", check_clique_duality),
    ("line-graph-duality", check_line_graph_duality),
    ("derived-quotient-cover", check_quotient_cover),
    ("export-roundtrip", check_export_roundtrip),
]

SYMMETRY_CHECKS = [
    ("right-action-automorphism", check_right_action_automorphism),
    ("right-action-homomorphism", check_right_action_homomorphism),
    ("edge-regular-action", check_edge_regular_action),
    ("gl-action-automorphism", check_gl_action),
    ("vertex-orbits-sides", check_vertex_orbits_sides),
    ("local-2-arc-transitivity", check_local_two_arc_transitivity),
    ("distance-layer-profiles", check_distance_layers),
    ("equitable-diagram-cells", check_equitable_cells),
    ("ball-radius-2", check_ball_radius_2),
    ("ball-radius-4", check_ball_radius_4),
    ("semisymmetry-certificate", check_semisymmetry_certificate),
]

STRETCH_CHECKS = [
    ("aut-group-order", check_aut_group_order),
]

# The checks of each suite; the stretch checks run in "all" only.
SUITE_PARTS = (("core", CORE_CHECKS), ("graphs", GRAPH_CHECKS),
               ("symmetry", SYMMETRY_CHECKS), ("all", STRETCH_CHECKS))


def run_suite(n: int, suite: str = "all", samples: int = 10000,
              seed: int = 0, timing: bool = False) -> VerificationReport:
    """Run the named battery; caps surface as 'skip', never 'fail'."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ctx = context(n)
    report = VerificationReport(n, suite)
    cache: dict = {}

    selected = [check for part, checks in SUITE_PARTS
                if suite in (part, "all") for check in checks]
    for name, fn in selected:
        rng = _rng(seed, name)
        t0 = time.perf_counter()
        try:
            status, expected, actual = fn(ctx, samples, rng, cache)
        except CapExceededError as exc:
            status, expected, actual = "skip", None, str(exc)
        except Exception as exc:  # a crashed check is a failed check
            status, expected, actual = "fail", None, f"{type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - t0) * 1000) if timing else 0
        report.checks.append(Check(name, status, expected, actual, ms))
    return report
