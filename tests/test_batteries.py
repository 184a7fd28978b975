"""The identity batteries: packed evaluation on PackedOps at every rank,
the scalar cross-check of the leading samples, and the two independent
phi computations behind the two kernels."""

import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from mixdih import verify
from mixdih.bulk import PackedOps, element_dtype, packed_ops
from mixdih.graphs import ROW_CHUNK
from mixdih.group import (
    GroupContext,
    comm,
    conj,
    context,
    evaluate_word,
    inv_by_word,
    word_of,
)
from mixdih.verify import CORE_CHECKS, CROSS_CHECK_SAMPLES, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKS = dict(CORE_CHECKS)
BATTERIES = [
    "jacobi-identity", "witt-hall-identity", "class3-vanishing",
    "h3-centrality", "double-commutator-landing", "derived-involutions",
    "y-absorption", "abelianization-homomorphism", "associativity",
    "associativity-exhaustive-subset", "strategy-independence",
    "inverse-involution", "canonical-coset-invariance",
]
# Samples each battery reports for `samples`; a passing report is
# {"failures": 0, "samples": this}.
REPORTED = {"associativity": lambda s: 10 * s,
            "associativity-exhaustive-subset": lambda s: 32**3}


def run(name, ctx, samples=500, seed=0):
    return CHECKS[name](ctx, samples, random.Random(seed), {})


def letters_of_words(ctx, words):
    """Packed single-generator letters, one word per row, 0-padded."""
    bit = {sym: 1 << p for p, sym in
           enumerate(word_of(ctx, ctx.unpack((1 << ctx.total_bits) - 1)))}
    out = np.zeros((len(words), max(map(len, words))), dtype=np.uint32)
    for r, word in enumerate(words):
        out[r, :len(word)] = [bit[sym] for sym in word]
    return out


# -- packed kernel against the scalar one ---------------------------------------

def test_mul_gen_fold_matches_evaluate_word():
    ctx = context(2)
    ops = packed_ops(ctx)
    elems = [ctx.unpack(z) for z in range(1 << ctx.total_bits)]
    words = [word_of(ctx, h) for h in elems]
    letters = letters_of_words(ctx, words)
    folded = np.zeros(len(elems), dtype=np.uint32)
    for column in letters.T:
        folded = ops.mul_gen(folded, column)
    want = [ctx.pack(evaluate_word(ctx, w)) for w in words]
    assert folded.tolist() == want
    assert ops.evaluate_word(letters).tolist() == want
    # the reversed words are the inverses, folded letter by letter
    rev = letters_of_words(ctx, [w[::-1] for w in words])
    assert ops.evaluate_word(rev).tolist() == \
        [ctx.pack(inv_by_word(ctx, h)) for h in elems]


@pytest.mark.parametrize("n", [2, 3])
def test_random_words_match_evaluate_word(n):
    ctx = context(n)
    letters = verify._draw_letters(ctx, random.Random(n), (300, 20))
    assert np.all(letters & (letters - np.uint32(1)) == 0)  # single bits
    assert int(letters.max()) < 1 << ctx.total_bits
    symbols = word_of(ctx, ctx.unpack((1 << ctx.total_bits) - 1))
    words = [[symbols[int(g).bit_length() - 1] for g in row] for row in letters]
    assert packed_ops(ctx).evaluate_word(letters).tolist() == \
        [ctx.pack(evaluate_word(ctx, w)) for w in words]


def draw_reference(ctx, rng, count, bits, shift):
    """verify._draw value by value off the same stream: the fewest whole
    bytes (1, 2, 4 or 8) per value that hold `bits`, or above 64 element
    bits 32-bit words, all values' lowest words first."""
    if ctx.total_bits > 64:
        words = -(-bits // 32)
        raw = rng.randbytes(4 * words * count)

        def value(i):
            return sum(int.from_bytes(raw[4 * (w * count + i):][:4],
                                      "little") << 32 * w
                       for w in range(words))
    else:
        width = min(w for w in (1, 2, 4, 8) if 8 * w >= bits)
        raw = rng.randbytes(width * count)

        def value(i):
            return int.from_bytes(raw[width * i:width * (i + 1)], "little")
    return [(value(i) & ((1 << bits) - 1)) << shift for i in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_draw_matches_bytewise_reference(n):
    """Whole elements and the y, w and t blocks: the same values in the
    element dtype, and the stream left at the same position."""
    ctx = context(n)
    blocks = [(ctx.total_bits, 0), (n, n), (ctx.dim_w, 2 * n),
              (ctx.dim_t, 2 * n + ctx.dim_w)]
    for seed, (bits, shift) in enumerate(blocks):
        got_rng, want_rng = (random.Random(seed) for _ in range(2))
        got = verify._draw(ctx, got_rng, 3000, bits, shift)
        assert got.dtype == element_dtype(ctx)
        assert [int(z) for z in got] == \
            draw_reference(ctx, want_rng, 3000, bits, shift)
        assert got_rng.getrandbits(64) == want_rng.getrandbits(64)


def below_reference(rng, highs):
    """Uniform draws in [0, high) for each high, read byte by byte off
    the stream: each try keeps the byte's low bits that high - 1 needs if
    they are below high, and the entries not kept try again, in order,
    once every entry has tried."""
    out, todo = [None] * len(highs), range(len(highs))
    while todo:
        retry = []
        for idx, byte in zip(todo, rng.randbytes(len(todo))):
            value = byte % (1 << (highs[idx] - 1).bit_length())
            if value < highs[idx]:
                out[idx] = value
            else:
                retry.append(idx)
        todo = retry
    return out


def draw_letters_int64(ctx, rng, shape):
    """The letter draws as an int64 formula with np.choose over scalar
    draws from the same stream, the reference that verify._draw_letters
    must match draw for draw."""
    n, size = ctx.n, shape[0] * shape[1]

    def below(highs):
        return np.array(below_reference(rng, highs)).reshape(shape)
    kind, i, j = (below([high] * size) for high in (4, n, n))
    ti = below([n - 1] * size) + 1
    tk = ti + 1 + below((n - ti).ravel().tolist())
    pair = (ti - 1) * (2 * n - ti) // 2 + (tk - ti - 1)
    pos = np.choose(kind, [i, n + i, 2 * n + i * n + j,
                           2 * n + ctx.dim_w + pair * n + j])
    dtype = element_dtype(ctx)
    return np.ones(shape, dtype=dtype) << pos.astype(dtype)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_draw_letters_match_int64_formula(n):
    """Same letters, same dtype and the same stream consumed as the int64
    formula, including a draw of more than ROW_CHUNK letters."""
    ctx = context(n)
    for seed, shape in [(0, (300, 20)), (1, (4000, 20))]:
        got_rng, want_rng = (random.Random(seed) for _ in range(2))
        got = verify._draw_letters(ctx, got_rng, shape)
        want = draw_letters_int64(ctx, want_rng, shape)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got_rng.getrandbits(64) == want_rng.getrandbits(64)
    assert 4000 * 20 > ROW_CHUNK


def test_bounded_draws_are_exact():
    """Every value below each bound is drawn, none at or above it, and a
    bound that is not a power of two still draws uniformly (3 of them:
    within 2 % of size / 3 each at this seed and size)."""
    rng = random.Random(0)
    for high in range(1, 10):
        assert set(verify._below(rng, high, 2000).tolist()) == \
            set(range(high))
    highs = np.array([h for h in range(1, 9) for _ in range(300)], np.uint8)
    got = verify._below(rng, highs, len(highs))
    assert got.dtype == np.uint8 and np.all(got < highs)
    assert {(int(h), int(v)) for h, v in zip(highs, got)} == \
        {(h, v) for h in range(1, 9) for v in range(h)}
    counts = np.bincount(verify._below(rng, 3, 30000))
    assert np.all(np.abs(counts - 10000) < 200)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_letters_cover_every_generator(n):
    """Every kind, index and t pair is drawn: the positions are exactly
    the element's bits, so each t letter is a t_(i,k,j) with
    1 <= i < k <= n, and every such letter occurs."""
    ctx = context(n)
    pos = verify._letter_positions(ctx, random.Random(n), (500, 20))
    assert sorted(set(pos.ravel().tolist())) == list(range(ctx.total_bits))
    t_letters = {ctx.bit_symbols[p] for p in pos.ravel().tolist()
                 if ctx.bit_symbols[p][0] == "t"}
    assert t_letters == {("t", i, k, j) for i in range(1, n + 1)
                         for k in range(i + 1, n + 1)
                         for j in range(1, n + 1)}


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--suite", "all"],
    ["--n", "3", "--suite", "core", "--samples", "1000"]])
def test_verify_never_imports_numpy_random(argv):
    """The batteries draw from the check's own random.Random: a whole
    verify run leaves numpy.random unimported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    code = ("import contextlib, io, sys\n"
            "from mixdih.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['verify', *{argv!r}])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.startswith('numpy.random')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_draw_letters_peak_alloc(peak_alloc):
    """The int64 formula peaked near 16 MB for these 2e5 letters and the
    numpy generator's draws near 3.1 MB.  The uint8 draws measure
    1.54 MiB, of which 0.76 MiB are the letters; the bound leaves 0.21
    MiB (13 %) of margin."""
    ctx = context(2)
    rng = random.Random(0)
    assert peak_alloc(lambda: verify._draw_letters(ctx, rng, (10000, 20))) \
        < 7 << 18


def test_battery_peak_alloc(peak_alloc, monkeypatch):
    """With blocks of 1024 samples, each n = 2 battery's traced peak is
    at most twice its sample arrays (a draw holds its random bytes next
    to the array it builds from them) plus 32 elements per sample of one
    block.  Measured: at most 2.02 times the samples (the letters), and
    at most 23 elements per block sample above twice the samples
    (inverse-involution).  Evaluated whole, jacobi-identity's 10^4
    triples held 11.6 elements of temporaries per sample."""
    ctx = context(2)
    monkeypatch.setattr(verify.gr, "ROW_CHUNK", 1024)
    sample_bytes = {}
    battery = verify._battery

    def spy(ctx, identity, *samples):
        sample_bytes[name] = sum(s.nbytes for s in samples)
        return battery(ctx, identity, *samples)
    monkeypatch.setattr(verify, "_battery", spy)
    block = 32 * 1024 * np.dtype(element_dtype(ctx)).itemsize
    for name in BATTERIES:
        peak = peak_alloc(lambda: run(name, ctx, samples=10000))
        assert peak <= 2 * sample_bytes[name] + block, name


def psi_reference(ctx, a, b):
    """t-block from the pairs i < k of x's in a crossing the y-support b,
    the closed form that the collection rule produces."""
    bits = [k + 1 for k in range(ctx.n) if a >> k & 1]
    dt = 0
    for u, i in enumerate(bits):
        for k in bits[u + 1:]:
            dt ^= b << (ctx.pair_index(i, k) * ctx.n)
    return dt


@pytest.mark.parametrize("n", [2, 3])
def test_packed_tables_match_closed_forms(n):
    """The m bits (outer) and t bits (psi) of yx, read off the scalar
    products y^b x^a, equal their closed forms; each phi entry is the XOR
    of its single-x entries."""
    ctx = context(n)
    ops = packed_ops(ctx)
    mask = (1 << n) - 1
    assert len(ops.yx) == 1 << 2 * n
    for idx in range(1 << 2 * n):
        a, b = idx >> n, idx & mask
        assert int(ops.yx[idx]) & ctx._mask_w == ctx.outer(a, b)
        assert int(ops.yx[idx]) >> ctx.dim_w == psi_reference(ctx, a, b)
    for idx in range(len(ops.phi)):
        want = 0
        for k in range(n):
            if idx >> k & 1:
                want ^= int(ops.phi[(idx & ~mask) | 1 << k])
        assert int(ops.phi[idx]) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_packed_phi_matches_collection_loop(n):
    """phi as PackedOps computes it (the row formula, tabulated at
    n <= 3) equals the collection loop of the scalar kernel: on every
    (m, a) up to n = 4, on 2^16 random pairs at n = 5."""
    ctx = context(n)
    ops = packed_ops(ctx)
    if n <= 4:
        idx = np.arange(1 << (ctx.dim_w + n), dtype=ops.dtype)
        m, a = idx >> n, idx & ctx._mask_n
    else:
        rng = random.Random(n)
        m = verify._draw(ctx, rng, 1 << 16, ctx.dim_w)
        a = verify._draw(ctx, rng, 1 << 16, n)
    assert ops.phi_of(m << 2 * n, a).tolist() == \
        [ctx._phi_loop(x, y) for x, y in zip(m.tolist(), a.tolist())]


@pytest.mark.parametrize("n", [2, 3])
def test_packed_comm_conj_match_scalar(n):
    ctx = context(n)
    ops = packed_ops(ctx)
    rng = random.Random(n)
    g, h = (verify._draw(ctx, rng, 2000) for _ in range(2))
    pairs = [(ctx.unpack(int(a)), ctx.unpack(int(b))) for a, b in zip(g, h)]
    assert ops.comm(g, h).tolist() == [ctx.pack(comm(ctx, a, b))
                                       for a, b in pairs]
    assert ops.conj(g, h).tolist() == [ctx.pack(conj(ctx, a, b))
                                       for a, b in pairs]


# -- the scalar cross-check -------------------------------------------------------

@pytest.mark.parametrize("name,table", [
    *((b, "phi") for b in BATTERIES if b not in (
        "derived-involutions", "y-absorption", "canonical-coset-invariance")),
    *((b, table) for table in ("outer", "psi")
      for b in BATTERIES if b != "derived-involutions"),
])
def test_cross_check_catches_corrupted_packed_table(name, table, monkeypatch):
    """A PackedOps with one zeroed table, over an intact scalar context:
    phi, or the m bits (outer) or t bits (psi) of yx.

    y-absorption and canonical-coset-invariance never read phi at a
    nonzero row in a value they compare, so they get no zeroed phi.
    derived-involutions is left out: its products stay inside the
    elementary abelian derived subgroup, read only row 0 of each table,
    and every value it computes is the identity.
    """
    ctx = context(2)
    ops = packed_ops(ctx)
    if table == "phi":
        monkeypatch.setattr(ops, "phi", np.zeros_like(ops.phi))
    else:
        keep = ~ops.mask_w if table == "outer" else ops.mask_w
        monkeypatch.setattr(ops, "yx", ops.yx & keep)
    status, _, actual = run(name, ctx)
    assert status == "fail", actual


def test_only_the_cross_check_sees_a_zeroed_phi(monkeypatch, mutant):
    """Without the tau term Jacobi still holds, so a packed kernel with
    a zeroed phi fails Jacobi only on the cross-checked samples."""
    assert run("jacobi-identity", mutant("none"))[0] == "pass"
    ctx = context(2)
    ops = packed_ops(ctx)
    monkeypatch.setattr(ops, "phi", np.zeros_like(ops.phi))
    status, _, actual = run("jacobi-identity", ctx)
    assert status == "fail"
    assert 0 < actual["failures"] <= CROSS_CHECK_SAMPLES


class LoopOnlyMutant(GroupContext):
    """phi dropped from the collection loop alone: the scalar kernel runs
    the class-2 quotient, the packed row formula the true group."""

    def _phi_loop(self, m, a):
        return 0


def test_cross_check_sees_a_wrong_collection_loop():
    """Jacobi holds in both kernels, so only the cross-checked samples
    can see that their values differ."""
    status, _, actual = run("jacobi-identity", LoopOnlyMutant(2))
    assert status == "fail"
    assert 0 < actual["failures"] <= CROSS_CHECK_SAMPLES


@pytest.mark.parametrize("mode", ["full", "asym", "none"])
@pytest.mark.parametrize("name", BATTERIES)
def test_verdict_matches_scalar_backend(name, mode, monkeypatch, mutant):
    """Same draws, same report, whether PackedOps or group.py runs them,
    on the mutated collection rules as well."""
    ctx = mutant(mode)
    packed = run(name, ctx)
    monkeypatch.setattr(verify, "packed_ops", verify.ScalarOps)
    assert run(name, ctx) == packed


@pytest.mark.parametrize("n", [4, 5])
def test_high_rank_core_matches_scalar_backend(n, monkeypatch):
    """Above n = 3 too the packed kernel gives the report that group.py
    gives on every sample."""
    packed = run_suite(n, "core", samples=1000)
    monkeypatch.setattr(verify, "packed_ops", verify.ScalarOps)
    assert run_suite(n, "core", samples=1000) == packed


def test_mutations_break_the_batteries(mutant):
    """"asym" breaks the group laws.  "none" is the class-2 quotient with
    inert t bits, a group: only the derived-subgroup span sees it."""
    asym, none = mutant("asym"), mutant("none")
    assert run("jacobi-identity", asym)[0] == "fail"
    assert run("jacobi-identity", none)[0] == "pass"
    assert run("associativity", asym)[0] == "fail"
    assert run("associativity", none)[0] == "pass"
    assert run("associativity", context(2))[0] == "pass"
    status, _, actual = run("derived-subgroup-structure", none)
    assert status == "fail"
    assert actual["span_size"] == 16


def test_derived_span_is_compared_to_the_kernel_at_rank_three(monkeypatch):
    """At n=3 (u = 18) the span of the basis products is walked and
    compared to the kernel: one product dropped halves the span."""
    ctx = context(3)
    status, expected, actual = run("derived-subgroup-structure", ctx)
    assert status == "pass" and actual == expected
    assert actual["span_size"] == 1 << 18 and actual["span_equals_kernel"]
    basis = verify.derived_basis
    monkeypatch.setattr(verify, "derived_basis", lambda c: basis(c)[:-1])
    status, _, actual = run("derived-subgroup-structure", ctx)
    assert status == "fail"
    assert actual["span_size"] == 1 << 17
    assert actual["span_equals_kernel"] is False


def test_derived_span_fails_when_a_product_leaves_the_kernel(monkeypatch):
    """The span walks the fibres of H': the products by the last basis
    element are given a nonzero a block, fibre bits kept, and each goes to
    the walk's spare slot, so the span loses the half it reached and the
    check fails.  Shifting the low bits away would have hidden the fault."""
    ctx = context(2)
    assert run("derived-subgroup-structure", ctx)[0] == "pass"
    ops = packed_ops(ctx)
    last = ops.scalar(ctx.pack(verify.derived_basis(ctx)[-1]))
    mul = ops.mul

    def faulty(z1, z2):
        out = mul(z1, z2)
        return out | ops.scalar(1) if z2 == last else out

    monkeypatch.setattr(ops, "mul", faulty)
    status, expected, actual = run("derived-subgroup-structure", ctx)
    assert status == "fail"
    assert actual["span_size"] == 1 << 5 < expected["span_size"] == 1 << 6
    assert actual["span_equals_kernel"] is False


def test_recorded_values_own_their_data(monkeypatch):
    """The cross-check keeps the outputs of its own call on the leading
    samples, arrays of their own, not views that would keep a whole
    block's output array alive."""
    recorders = []

    class Recorded(verify._Recorded):
        def __init__(self, *args):
            super().__init__(*args)
            recorders.append(self)
    monkeypatch.setattr(verify, "_Recorded", Recorded)
    assert run("associativity", context(2))[0] == "pass"
    values = [v for r in recorders for v in r.values]
    assert len(recorders) == 2 and len(values) == 8
    assert all(v.base is None and len(v) == CROSS_CHECK_SAMPLES
               for v in values)


# -- the multiplication table ---------------------------------------------------

def mutate_products(monkeypatch, edit):
    """PackedOps.mul with edit(g, h, out) applied to each product array,
    g and h broadcast to its shape."""
    mul = PackedOps.mul

    def mutant(self, z1, z2):
        out = mul(self, z1, z2)
        edit(*np.broadcast_arrays(z1, z2), out)
        return out
    monkeypatch.setattr(PackedOps, "mul", mutant)


def swap_two_products(g, h, out):
    # 0*1 and 0*2 (0 is the identity) trade places: row 0 stays a
    # permutation, so only a column can show the repeat
    out[(g == 0) & ((h == 1) | (h == 2))] ^= 3


def repeat_a_product(g, h, out):
    out[(g == 0) & (h == 2)] = 1  # row 0 now holds 1 twice


@pytest.mark.parametrize("edit", [swap_two_products, repeat_a_product])
def test_latin_square_sees_mutated_products(edit, monkeypatch):
    ctx = context(2)
    assert run("multiplication-latin-square", ctx)[0] == "pass"
    mutate_products(monkeypatch, edit)
    assert run("multiplication-latin-square", ctx) == \
        ("fail", "rows and columns are permutations", "not a latin square")


def test_latin_square_peak_alloc(peak_alloc):
    """The whole 2^20-entry table at n = 2 peaked at 24 MB."""
    ctx = context(2)
    assert run("multiplication-latin-square", ctx)[0] == "pass"
    assert peak_alloc(lambda: run("multiplication-latin-square", ctx)) \
        < 4 << 20


# -- reports --------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_passing_reports_count_samples(n):
    rep = run_suite(n, "core", samples=300, seed=5)
    checks = {c.name: c for c in rep.checks}
    for name in BATTERIES:
        c = checks[name]
        want = REPORTED.get(name, lambda s: s)(300)
        assert c.status == "pass"
        assert c.expected == c.actual == {"failures": 0, "samples": want}


def test_rank4_core_reports_sample_counts():
    rep = run_suite(4, "core", samples=200)
    assert Counter(c.status for c in rep.checks) == {"pass": 24, "skip": 3}
    checks = {c.name: c for c in rep.checks}
    assert checks["associativity"].actual == {"failures": 0, "samples": 2000}
    assert checks["inverse-involution"].actual == \
        {"failures": 0, "samples": 200}


# The checks that skip at n = 4: those that enumerate the group or build
# the Cayley or coset graph, and the ones kept to n = 2.
SKIPPED_AT_RANK4 = [
    "normal-form-enumeration", "multiplication-latin-square",
    "abelianization-kernel", "cayley-graph-stats", "coset-graph-stats",
    "edge-bijection", "clique-coset-duality", "line-graph-duality",
    "right-action-automorphism", "right-action-homomorphism",
    "edge-regular-action", "gl-action-automorphism", "vertex-orbits-sides",
    "distance-layer-profiles", "equitable-diagram-cells",
    "semisymmetry-certificate", "aut-group-order"]


def test_rank4_suite_skips_only_the_named_checks():
    rep = run_suite(4, "all", samples=1000)
    assert [c.name for c in rep.checks if c.status == "skip"] == \
        SKIPPED_AT_RANK4
    assert rep.summary == {"fail": 0, "inconclusive": 0,
                           "pass": len(rep.checks) - 17, "skip": 17}


def test_rank6_suite_skips_only_the_named_checks():
    # the same caps hold at n = 6 (a = 138), where the 2-arc check's
    # scalar maps take most of the ~3 s
    rep = run_suite(6, "all", samples=1000)
    assert [c.name for c in rep.checks if c.status == "skip"] == \
        SKIPPED_AT_RANK4
    assert rep.summary == {"fail": 0, "inconclusive": 0,
                           "pass": len(rep.checks) - 17, "skip": 17}


@pytest.mark.parametrize("samples", [0, -1])
def test_run_suite_refuses_fewer_than_one_sample(samples):
    # no sampled check may pass on nothing
    with pytest.raises(ValueError, match="samples must be at least 1"):
        run_suite(2, "core", samples=samples)
