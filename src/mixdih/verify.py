"""Named verification batteries over the group, graph and symmetry layers.

Each check is a pure function returning (status, expected, actual); the
runner wraps them into a deterministic report.  Randomized checks draw
from a per-check seeded stream so reports are reproducible; resource-capped
checks report "skip", never "fail".
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import graphs as gr
from . import hall
from . import symmetry as sym
from .autgroup import automorphism_group_order
from .bulk import element_dtype, packed_ops
from .group import (
    DEFAULT_ENUM_CAP_BITS,
    EXHAUSTIVE_CAP_BITS,
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

SUITES = ("core", "graphs", "symmetry", "all")


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skip | inconclusive
    expected: object
    actual: object
    runtime_ms: int = 0
    peak_rss_mb: float | None = None  # recorded under timing only


@dataclass
class VerificationReport:
    n: int
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        """fail if a check failed, else incomplete if none passed (all
        skipped or inconclusive), else pass."""
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        return "pass" if "pass" in statuses else "incomplete"

    @property
    def summary(self) -> dict[str, int]:
        """The number of checks of each status, statuses in sorted order."""
        return {s: sum(c.status == s for c in self.checks)
                for s in ("fail", "inconclusive", "pass", "skip")}

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "suite": self.suite,
            "checks": [
                {"name": c.name, "status": c.status, "expected": c.expected,
                 "actual": c.actual, "runtime_ms": c.runtime_ms,
                 **({} if c.peak_rss_mb is None
                    else {"peak_rss_mb": c.peak_rss_mb})}
                for c in self.checks
            ],
            "summary": self.summary,
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _peak_rss_mb() -> float | None:
    """The peak resident set of this process so far, in MB to one place
    (``ru_maxrss`` counts KiB on Linux, bytes on macOS); None where there
    is no ``getrusage``."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << (20 if sys.platform == "darwin" else 10)), 1)


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
# samples are drawn as arrays straight from the check's own seeded stream.
# Every sample runs on PackedOps (bulk.py), at every rank: the first
# CROSS_CHECK_SAMPLES as one call that the group.py kernel, through ScalarOps,
# repeats, the rest ROW_CHUNK at a time.  A sample fails when its identity
# fails or when any value the identity computed differs between the kernels.

CROSS_CHECK_SAMPLES = 256


def _draw(ctx: GroupContext, rng: random.Random, count: int,
          bits: int | None = None, shift: int = 0) -> np.ndarray:
    """count packed values whose `bits` bits from bit `shift` up are
    uniformly random, the rest zero (default: whole elements).

    Each value reads the fewest little-endian bytes of rng.randbytes, 1,
    2, 4 or 8, that hold `bits`; object arrays (above 64 bits) read them
    32 bits at a time."""
    bits = ctx.total_bits if bits is None else bits
    dtype = element_dtype(ctx)
    if dtype is object:
        words = np.frombuffer(rng.randbytes(4 * count * -(-bits // 32)),
                              "<u4").reshape(-1, count)
        out = np.zeros(count, dtype=object)
        for w, word in enumerate(words):
            out |= word.astype(object) << 32 * w
        return (out & ((1 << bits) - 1)) << shift
    width = next(w for w in (1, 2, 4, 8) if 8 * w >= bits)
    out = np.frombuffer(rng.randbytes(width * count), f"<u{width}") \
        .astype(dtype)
    out &= dtype((1 << bits) - 1)
    out <<= shift
    return out


# _LOW_MASKS[high]: the low bits that a draw below high needs
_LOW_MASKS = np.array([0] + [(1 << (h - 1).bit_length()) - 1
                             for h in range(1, 256)], dtype=np.uint8)


def _below(rng: random.Random, high, size: int) -> np.ndarray:
    """size uniform uint8 draws in [0, high), high an int or a uint8
    array of size entries, each in 1..255.

    Each entry masks one byte of the stream to the bits that high - 1
    needs and keeps it if it is below high; the rejected entries draw
    again, in order, until none is left."""
    high = np.asarray(high, dtype=np.uint8)
    high, mask = (np.broadcast_to(a, size) for a in (high, _LOW_MASKS[high]))
    out = np.frombuffer(rng.randbytes(size), np.uint8) & mask
    redo = np.flatnonzero(out >= high)
    while redo.size:
        out[redo] = np.frombuffer(rng.randbytes(redo.size), np.uint8) \
            & mask[redo]
        redo = redo[out[redo] >= high[redo]]
    return out


def _draw_letters(ctx: GroupContext, rng: random.Random,
                  shape: tuple[int, int]) -> np.ndarray:
    """Packed generator letters: a uniform kind (x, y, w or t), then
    uniform 0-based indices, with i < k for t."""
    letters = _letter_positions(ctx, rng, shape).astype(element_dtype(ctx))
    return np.left_shift(1, letters, out=letters)


def _letter_positions(ctx: GroupContext, rng: random.Random,
                      shape: tuple[int, int]) -> np.ndarray:
    """Bit positions of the letters of _draw_letters, in the smallest
    dtype that holds total_bits (uint8 up to n = 7); its own function so
    that the draws are freed before the letters are built.

    The draws, in stream order, are the kind, i, j, then the t pair: i
    uniform in [1, n), then k uniform in (i, n]."""
    n, size = ctx.n, shape[0] * shape[1]
    dtype = np.min_scalar_type(ctx.total_bits)
    kind, i, j = (_below(rng, high, size).astype(dtype, copy=False)
                  for high in (4, n, n))
    # pair_index(i, k) is that of (i, i + 1) plus k - i - 1, which is
    # uniform in [0, n - i)
    first = np.array([ctx.pair_index(a, a + 1) for a in range(1, n)], dtype)
    i0 = _below(rng, n - 1, size)  # i - 1
    pos = _below(rng, (n - 1) - i0, size).astype(dtype, copy=False)
    pos += first[i0]
    del i0
    # t: 2n + dim_w + pair*n + j, w: 2n + i*n + j, y: n + i, x: i
    pos *= n
    pos += ctx.dim_w
    np.copyto(pos, n * i, where=kind != 3)
    pos += j
    pos += 2 * n
    np.copyto(pos, n * kind + i, where=kind < 2)
    return pos.reshape(shape)


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
    """Forwards to an ops object and keeps every array it returns."""

    def __init__(self, ops):
        self.ops, self.values = ops, []

    def __getattr__(self, name):
        fn = getattr(self.ops, name)

        def call(*args):
            out = fn(*args)
            self.values.append(out)
            return out
        return call


def _battery(ctx: GroupContext, identity, *samples: np.ndarray):
    """Tally identity(ops, *samples), a per-sample bool array.  The first
    CROSS_CHECK_SAMPLES samples run as one recorded PackedOps call, which
    ScalarOps repeats value by value; the rest run on PackedOps ROW_CHUNK
    samples at a time."""
    count = len(samples[0])
    keep = min(count, CROSS_CHECK_SAMPLES)
    ops = packed_ops(ctx)
    packed, scalar = _Recorded(ops), _Recorded(ScalarOps(ctx))
    ok = np.empty(count, dtype=bool)
    head = [s[:keep] for s in samples]
    ok[:keep] = identity(packed, *head) & identity(scalar, *head)
    for p, s in zip(packed.values, scalar.values, strict=True):
        ok[:keep] &= p == s
    for lo in range(keep, count, gr.ROW_CHUNK):
        ok[lo:lo + gr.ROW_CHUNK] = identity(
            ops, *(s[lo:lo + gr.ROW_CHUNK] for s in samples))
    return _tally(ok)


def _whole_elements(ctx, rng, count, k):
    return [_draw(ctx, rng, count) for _ in range(k)]


def check_jacobi(ctx, samples, rng, cache):
    def jacobi(ops, a, b, c):
        prod = ops.mul(ops.mul(ops.comm(ops.comm(a, b), c),
                               ops.comm(ops.comm(b, c), a)),
                       ops.comm(ops.comm(c, a), b))
        return prod == 0
    return _battery(ctx, jacobi, *_whole_elements(ctx, rng, samples, 3))


def check_witt_hall(ctx, samples, rng, cache):
    def witt_hall(ops, x, y, z):
        def term(u, v, w):
            return ops.conj(ops.comm(ops.comm(u, ops.inv(v)), w), v)
        return ops.mul(ops.mul(term(x, y, z), term(y, z, x)),
                       term(z, x, y)) == 0
    return _battery(ctx, witt_hall, *_whole_elements(ctx, rng, samples, 3))


def check_class3(ctx, samples, rng, cache):
    def vanishes(ops, g, h, k, l):
        return ops.comm(ops.comm(ops.comm(g, h), k), l) == 0
    return _battery(ctx, vanishes, *_whole_elements(ctx, rng, samples, 4))


def check_h3_central(ctx, samples, rng, cache):
    def fixed(ops, t, r):
        # t^r = t, written out so that r^-1 is one of the compared values
        return ops.mul(ops.inv(r), ops.mul(t, r)) == t
    t_only = _draw(ctx, rng, samples, ctx.dim_t, 2 * ctx.n + ctx.dim_w)
    return _battery(ctx, fixed, t_only, _draw(ctx, rng, samples))


def check_double_comm_landing(ctx, samples, rng, cache):
    below_t = (1 << (2 * ctx.n + ctx.dim_w)) - 1  # the a, b and m blocks
    def lands(ops, g, h, k):
        return (ops.comm(ops.comm(g, h), k) & below_t) == 0
    return _battery(ctx, lands, *_whole_elements(ctx, rng, samples, 3))


def check_derived_involutions(ctx, samples, rng, cache):
    def involutions(ops, g, h):
        return (ops.mul(g, g) == 0) & (ops.comm(g, h) == 0)
    g, h = (_draw(ctx, rng, samples, ctx.dim_w + ctx.dim_t, 2 * ctx.n)
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
    a = _draw(ctx, rng, samples)
    b, b2 = (_draw(ctx, rng, samples, ctx.n, ctx.n) for _ in range(2))
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
    return _battery(ctx, homomorphism, *_whole_elements(ctx, rng, samples, 2))


def _associative(ops, g, h, k):
    return ops.mul(ops.mul(g, h), k) == ops.mul(g, ops.mul(h, k))


def check_associativity(ctx, samples, rng, cache):
    return _battery(ctx, _associative,
                    *_whole_elements(ctx, rng, 10 * samples, 3))


def check_associativity_exhaustive(ctx, samples, rng, cache):
    triples = np.indices((32, 32, 32), dtype=np.uint8).reshape(3, -1)
    return _battery(ctx, _associative, *_draw(ctx, rng, 32)[triples])


def check_strategy_independence(ctx, samples, rng, cache):
    def independent(ops, words):
        halves = ops.mul(ops.evaluate_word(words[:, :10]),
                         ops.evaluate_word(words[:, 10:]))
        return ops.evaluate_word(words) == halves
    return _battery(ctx, independent, _draw_letters(ctx, rng, (samples, 20)))


def check_inverse(ctx, samples, rng, cache):
    # the reversed normal-form word of h is its set bits, highest first
    bits = np.array([1 << p for p in reversed(range(ctx.total_bits))],
                    dtype=element_dtype(ctx))
    def involution(ops, h):
        h_inv = ops.inv(h)
        return ((ops.mul(h, h_inv) == 0)
                & (h_inv == ops.evaluate_word(h[:, None] & bits)))
    return _battery(ctx, involution, _draw(ctx, rng, samples))


def check_encoding_roundtrip(ctx, samples, rng, cache):
    def one():
        h = _rand_elem(ctx, rng)
        return parse_element(ctx, format_element(ctx, h)) == h
    return _count_failures(one() for _ in range(samples))


def check_coset_key_invariance(ctx, samples, rng, cache):
    def invariant(ops, h, gx, gy):
        return ((ops.x_coset_key(ops.mul(gx, h)) == ops.x_coset_key(h))
                & (ops.y_coset_key(ops.mul(gy, h)) == ops.y_coset_key(h)))
    h = _draw(ctx, rng, samples)
    gx = _draw(ctx, rng, samples, ctx.n)
    gy = _draw(ctx, rng, samples, ctx.n, ctx.n)
    return _battery(ctx, invariant, h, gx, gy)


def check_derived_structure(ctx, samples, rng, cache):
    u = ctx.n**2 * (ctx.n + 1) // 2
    basis = derived_basis(ctx)
    vectors = [h.m | (h.t << ctx.dim_w) for h in basis]
    rank = gf2_rank(vectors)
    in_derived = all(h.a == 0 and h.b == 0 for h in basis)
    exp = {"derived_order_exp": u, "basis_in_kernel": True}
    act = {"derived_order_exp": rank, "basis_in_kernel": in_derived}
    if u <= DEFAULT_ENUM_CAP_BITS:
        ops = packed_ops(ctx)
        gens = [ops.scalar(ctx.pack(h)) for h in basis]
        mask_ab = ops.scalar((1 << 2 * ctx.n) - 1)

        def fibres(ids: np.ndarray) -> np.ndarray:
            # id d is the element d << 2n of the abelianization's kernel
            # (a = b = 0); a product outside it goes to the spare slot -1
            z = ids.astype(ops.dtype) << ops.s2n
            p = np.concatenate([ops.mul(z, g) for g in gens])
            return np.where(p & mask_ab, -1, (p >> ops.s2n).astype(np.int64))

        span = int(np.count_nonzero(gr.walk(fibres, 1 << u, [0]) >= 0))
        exp["span_equals_kernel"] = True
        act["span_equals_kernel"] = span == 1 << u
        exp["span_size"] = 1 << u
        act["span_size"] = span
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
    return _cached(cache, "quotient", lambda: gr.quotient_by_derived(ctx))


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
    g, half = sig.graph, sig.half
    exp = {"vertices": 2 << (ctx.total_bits - ctx.n),
           "edges": 1 << ctx.total_bits, "valency": 1 << ctx.n,
           "halves": [1 << (ctx.total_bits - ctx.n)] * 2}
    # the vertices on each side whose whole row lies in the other half
    halves = [int(np.count_nonzero(((lo <= rows) & (rows < hi)).all(axis=1)))
              for rows, lo, hi in ((g.rows[:half], half, g.num_vertices),
                                   (g.rows[half:], 0, half))]
    act = {"vertices": g.num_vertices, "edges": g.num_edges,
           "valency": _valency(g), "halves": halves}
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
    """The coset graph is a connected cover of K_{2^n,2^n}, read off the
    2^n x 2^n tables at every rank: ``PackedOps.tx`` holds the scalar Y
    keys of x^a y^b; entry [b, a] is of class a, so each X vertex meets
    each Y class once; and the voltages of the (2^n - 1)^2 fundamental
    cycles X0-Ya-Xb-Y0 (tree: the edges at class 0) span Z_2^u."""
    q, ops = _quotient(ctx, cache), packed_ops(ctx)
    two_n, u, half = 1 << ctx.n, ctx.total_bits - 2 * ctx.n, gr._half(ctx)
    scalar = np.array([[gr.coset_vertex(ctx, "Y", Element(a=a, b=b)) - half
                        for a in range(two_n)] for b in range(two_n)],
                      dtype=ops.dtype)
    zeta = gr.voltages(ctx)
    cycles = zeta[1:, 1:] ^ zeta[:1, 1:] ^ zeta[1:, :1] ^ zeta[0, 0]
    complete = all(q.has_edge(a, two_n + b)
                   for a in range(two_n) for b in range(two_n))
    exp = {"vertices": 2 * two_n, "edges": two_n * two_n,
           "valency": two_n, "complete_bipartite": True,
           "table_mismatches": 0, "class_mismatches": 0, "cycle_rank": u}
    act = {"vertices": q.num_vertices, "edges": q.num_edges,
           "valency": _valency(q), "complete_bipartite": complete,
           "table_mismatches": int(np.count_nonzero(ops.tx != scalar)),
           "class_mismatches": int(np.count_nonzero(
               (ops.tx & ops.mask_n) != np.arange(two_n))),
           "cycle_rank": gf2_rank(int(c) for c in cycles.ravel())}
    return ("pass" if exp == act else "fail", exp, act)


def check_export_roundtrip(ctx, samples, rng, cache):
    import io
    q = _quotient(ctx, cache)
    buf1, buf2 = io.StringIO(), io.StringIO()
    gr.export_graph(q, buf1, "edgelist", n=ctx.n, kind="quotient")
    gr.export_graph(q, buf2, "edgelist", n=ctx.n, kind="quotient")
    deterministic = buf1.getvalue() == buf2.getvalue()
    edges = list(q.edges())
    nv, parsed = gr.parse_edgelist(buf1.getvalue().splitlines())
    round_ok = nv == q.num_vertices and parsed == edges
    dot = io.StringIO()
    gr.export_graph(q, dot, "dot", n=ctx.n, kind="quotient")
    import re
    dot_pairs = [(int(u), int(v))
                 for u, v in re.findall(r"(\d+) -- (\d+);", dot.getvalue())]
    # q.num_edges iff the dot lines are q's edges, in order
    dot_edges = (sum(p == e for p, e in zip(dot_pairs, edges))
                 if len(dot_pairs) == len(edges) else len(dot_pairs))
    ok = deterministic and round_ok and dot_edges == q.num_edges
    return ("pass" if ok else "fail",
            {"deterministic": True, "edgelist_roundtrip": True, "dot_edges": q.num_edges},
            {"deterministic": deterministic, "edgelist_roundtrip": round_ok,
             "dot_edges": dot_edges})


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
    exp = {"ball_size": want + 1, "square_size": want, "equal": True}
    act = {"ball_size": len(ball), "square_size": len(square),
           "equal": set(ball) == set(square) | {IDENTITY}}
    return ("pass" if exp == act else "fail", exp, act)


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
        peak = _peak_rss_mb() if timing else None
        report.checks.append(Check(name, status, expected, actual, ms, peak))
    return report
