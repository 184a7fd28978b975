"""Normal-form collection arithmetic: contexts, products, inverses,
commutators, the presentation, automorphisms and encodings."""

import random

import numpy as np
import pytest

from mixdih.bulk import xor_fold_array
from mixdih.group import (
    CapExceededError,
    Element,
    EncodingError,
    IDENTITY,
    UnsupportedParameterError,
    comm,
    context,
    derived_basis,
    enumerate_elements,
    evaluate_word,
    format_element,
    gf2_identity,
    gf2_is_invertible,
    gf2_mat_mul,
    gf2_rank,
    generator_images,
    gl_enumerate,
    gl_generator_pairs,
    gl_generators,
    induced_automorphism,
    inv,
    inv_by_word,
    mul,
    mul_gen,
    order_of,
    parse_element,
    verify_presentation,
    word_of,
    xgen,
    xor_fold,
    ygen,
)


@pytest.fixture(scope="module")
def ctx2():
    return context(2)


@pytest.fixture(scope="module")
def ctx3():
    return context(3)


def rand_elem(ctx, rng):
    return ctx.unpack(rng.getrandbits(ctx.total_bits))


def w_bit(ctx, i, j):
    """Bit of w_ij in the w block: its letter less the x and y blocks."""
    return ctx.letter(("w", i, j)) - 2 * ctx.n


def t_bit(ctx, i, k, j):
    """Bit of t_(i,k,j) in the t block: its letter less the x, y and w
    blocks."""
    return ctx.letter(("t", i, k, j)) - 2 * ctx.n - ctx.dim_w


# -- context ---------------------------------------------------------------

def test_context_dimensions(ctx2, ctx3):
    assert ctx2.total_bits == 10
    assert ctx3.total_bits == 24
    assert ctx2.dim_w == 4 and ctx2.dim_t == 2
    assert ctx3.dim_w == 9 and ctx3.dim_t == 9


def test_context_rejects_small_n():
    with pytest.raises(UnsupportedParameterError):
        context(1)
    with pytest.raises(UnsupportedParameterError):
        context(0)


def test_letter_is_the_bit_table():
    # at n = 2..7, letter maps bit_symbols one-to-one onto the bit
    # positions, and each kind's symbols, in lexicographic index order,
    # fill its block of pack from the lowest bit: x in a, y in b, w_ij
    # row-major in m and t_(i,k,j), i < k, in t
    for n in range(2, 8):
        ctx = context(n)
        r = range(1, n + 1)
        blocks = [("a", [("x", i) for i in r]),
                  ("b", [("y", j) for j in r]),
                  ("m", [("w", i, j) for i in r for j in r]),
                  ("t", [("t", i, k, j) for i in r for k in r if i < k
                         for j in r])]
        bits = [ctx.letter(sym) for sym in ctx.bit_symbols]
        assert sorted(bits) == list(range(ctx.total_bits))
        assert sorted(ctx.bit_symbols) == sorted(
            sym for _, syms in blocks for sym in syms)
        for field, syms in blocks:
            assert [ctx.unpack(1 << ctx.letter(sym)) for sym in syms] == \
                [Element(**{field: 1 << p}) for p in range(len(syms))]


def test_pack_unpack_roundtrip(ctx3):
    rng = random.Random(0)
    for _ in range(200):
        z = rng.getrandbits(ctx3.total_bits)
        assert ctx3.pack(ctx3.unpack(z)) == z


# -- collection step ---------------------------------------------------------

def test_mulgen_y_then_x(ctx2):
    # y1 * x1 = x1 y1 w11
    r = mul_gen(ctx2, ygen(ctx2, 1), ("x", 1))
    assert r == Element(a=1, b=1, m=1)


def test_mulgen_w_over_same_x(ctx2):
    # crossing x1 over w11 is free
    w11 = comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    r = mul_gen(ctx2, w11, ("x", 1))
    assert r == Element(a=1, m=1, t=0)


def test_mulgen_w_over_other_x(ctx2):
    # crossing x2 over w11 produces the (1,2,1) central element
    w11 = comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    r = mul_gen(ctx2, w11, ("x", 2))
    assert r == Element(a=2, m=1, t=1 << t_bit(ctx2, 1, 2, 1))


def test_mulgen_bad_index(ctx2):
    with pytest.raises(IndexError):
        mul_gen(ctx2, IDENTITY, ("x", 3))
    with pytest.raises(IndexError):
        mul_gen(ctx2, IDENTITY, ("t", 2, 1, 1))
    with pytest.raises(IndexError):
        ctx2.letter(("w", 3, 1))
    with pytest.raises(ValueError):
        ctx2.letter(("z", 1))


def test_mulgen_tau_symmetry_normalisation(ctx2):
    # [[x2,y1],x1] lands on the same basis element as [[x1,y1],x2]
    w21 = comm(ctx2, xgen(ctx2, 2), ygen(ctx2, 1))
    r = mul_gen(ctx2, w21, ("x", 1))
    assert r.t == 1 << t_bit(ctx2, 1, 2, 1)


# -- mul / inv / comm ----------------------------------------------------------

def test_generator_squares(ctx2):
    for g in [xgen(ctx2, 1), xgen(ctx2, 2), ygen(ctx2, 1), ygen(ctx2, 2)]:
        assert mul(ctx2, g, g) == IDENTITY


def test_identity_laws(ctx2):
    rng = random.Random(1)
    for _ in range(100):
        h = rand_elem(ctx2, rng)
        assert mul(ctx2, IDENTITY, h) == h
        assert mul(ctx2, h, IDENTITY) == h


def test_xy_squared_is_commutator(ctx2):
    x1y1 = mul(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    assert mul(ctx2, x1y1, x1y1) == comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))


def test_mul_equals_word_fold(ctx2, ctx3):
    rng = random.Random(2)
    for ctx in (ctx2, ctx3):
        for _ in range(300):
            g, h = rand_elem(ctx, rng), rand_elem(ctx, rng)
            assert mul(ctx, g, h) == evaluate_word(
                ctx, word_of(ctx, g) + word_of(ctx, h))


def test_inv_examples(ctx2):
    assert inv(ctx2, xgen(ctx2, 1)) == xgen(ctx2, 1)
    w11 = comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    assert inv(ctx2, w11) == w11
    x1y1 = mul(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    got = inv(ctx2, x1y1)
    assert got == Element(a=1, b=1, m=1)
    assert mul(ctx2, x1y1, got) == IDENTITY


def test_inv_equals_reversed_word_exhaustive(ctx2):
    for h in enumerate_elements(ctx2):
        assert inv(ctx2, h) == inv_by_word(ctx2, h)


def test_inv_equals_reversed_word_sampled(ctx3):
    rng = random.Random(3)
    for _ in range(500):
        h = rand_elem(ctx3, rng)
        assert inv(ctx3, h) == inv_by_word(ctx3, h)
        assert mul(ctx3, h, inv(ctx3, h)) == IDENTITY


def test_comm_examples(ctx2):
    assert comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1)) == Element(m=1)
    assert comm(ctx2, xgen(ctx2, 1), xgen(ctx2, 2)) == IDENTITY
    c = comm(ctx2, mul(ctx2, xgen(ctx2, 1), xgen(ctx2, 2)), ygen(ctx2, 1))
    assert c.m == (1 << w_bit(ctx2, 1, 1)) | (1 << w_bit(ctx2, 2, 1))
    assert c.t == 1 << t_bit(ctx2, 1, 2, 1)  # exact value from collection


# -- words -------------------------------------------------------------------

def test_evaluate_word_examples(ctx2):
    assert evaluate_word(ctx2, [("x", 1), ("x", 1)]) == IDENTITY
    assert evaluate_word(ctx2, [("y", 1), ("x", 1)]) == Element(a=1, b=1, m=1)
    # the relator [[y1,x1],y2]: y-side commutators absorb into nothing
    y1, x1, y2 = ygen(ctx2, 1), xgen(ctx2, 1), ygen(ctx2, 2)
    assert comm(ctx2, comm(ctx2, y1, x1), y2) == IDENTITY


def test_word_of_roundtrip(ctx3):
    rng = random.Random(4)
    for _ in range(200):
        h = rand_elem(ctx3, rng)
        assert evaluate_word(ctx3, word_of(ctx3, h)) == h


def block_word(ctx, h):
    """Reference: the normal-form word read block by block through the
    bit table."""
    n = ctx.n
    out = [("x", i) for i in range(1, n + 1) if h.a >> (i - 1) & 1]
    out += [("y", j) for j in range(1, n + 1) if h.b >> (j - 1) & 1]
    out += [("w", i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if h.m >> w_bit(ctx, i, j) & 1]
    out += [("t", i, k, j) for i in range(1, n + 1)
            for k in range(i + 1, n + 1) for j in range(1, n + 1)
            if h.t >> t_bit(ctx, i, k, j) & 1]
    return out


def test_word_of_matches_block_loops(ctx2, ctx3):
    rng = random.Random(5)
    assert len(ctx3.bit_symbols) == ctx3.total_bits
    for h in enumerate_elements(ctx2):
        assert word_of(ctx2, h) == block_word(ctx2, h)
    for _ in range(3000):
        h = rand_elem(ctx3, rng)
        assert word_of(ctx3, h) == block_word(ctx3, h)


# -- presentation ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_presentation_passes(n):
    rep = verify_presentation(context(n))
    assert rep["pass"]
    assert len(rep["families"]) == 6
    assert all(f["failures"] == 0 for f in rep["families"])


def test_corrupted_collection_detected(mutant, span):
    """Dropping the tau term yields the multiplication of the class-2
    quotient (with inert t bits), which still satisfies every relator --
    so the presentation verifier alone cannot see it.  The derived-basis
    rank and the t-landing example do."""
    bad = mutant("none")
    rep = verify_presentation(bad)
    assert rep["pass"]  # quotients satisfy all relators
    # but the third-layer basis collapses...
    w11 = comm(bad, xgen(bad, 1), ygen(bad, 1))
    assert comm(bad, w11, xgen(bad, 2)) == IDENTITY  # wrong group
    assert len(span(bad, derived_basis(bad))) == 16  # instead of 64
    # ...which the structure check of the battery flags
    from mixdih.verify import check_derived_structure
    status, _, _ = check_derived_structure(bad, 100, random.Random(0), {})
    assert status == "fail"


def test_asymmetric_collection_breaks_group_laws(mutant):
    """Dropping only the symmetry normalisation is not a group law at all:
    Witt-Hall (pure consequence of associativity) fails."""
    bad = mutant("asym")
    from mixdih.verify import check_witt_hall, check_commutator_symmetry
    status, _, _ = check_witt_hall(bad, 500, random.Random(0), {})
    status2, _, _ = check_commutator_symmetry(bad, 0, random.Random(0), {})
    assert "fail" in (status, status2)


# -- abelianization ----------------------------------------------------------------

def test_abelianization_examples(ctx2):
    w11 = comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    assert (w11.a, w11.b) == (0, 0)
    h = mul(ctx2, xgen(ctx2, 1), ygen(ctx2, 2))
    assert (h.a, h.b) == (1, 2)


def test_abelianization_surjective_kernel_exact(ctx2):
    images = set()
    kernel = []
    for h in enumerate_elements(ctx2):
        images.add((h.a, h.b))
        if (h.a, h.b) == (0, 0):
            kernel.append(h)
    assert len(images) == 16
    assert len(kernel) == 64
    assert all(h.a == 0 and h.b == 0 for h in kernel)


# -- enumeration / orders ---------------------------------------------------------

def test_enumerate_count_and_distinct(ctx2):
    elems = list(enumerate_elements(ctx2))
    assert len(elems) == 1024
    assert len(set(elems)) == 1024
    assert elems[0] == IDENTITY
    packed = [ctx2.pack(h) for h in elems]
    assert packed == sorted(packed)  # increasing encoded order


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_elements(context(4)))


def test_exponent_is_four_exhaustive(ctx2):
    orders = {order_of(ctx2, h) for h in enumerate_elements(ctx2)}
    assert orders == {1, 2, 4}


def test_derived_subgroup_exact(ctx2, span):
    derived = span(ctx2, derived_basis(ctx2))
    kernel = {h for h in enumerate_elements(ctx2) if h.a == 0 and h.b == 0}
    assert derived == kernel
    assert len(derived) == 64


# -- encodings --------------------------------------------------------------------

def test_encoding_examples(ctx2):
    assert format_element(ctx2, IDENTITY) == "a:0;b:0;w:0;t:0"
    assert parse_element(ctx2, "a:0;b:0;w:0;t:0") == IDENTITY
    assert format_element(ctx2, xgen(ctx2, 1)) == "a:1;b:0;w:0;t:0"
    assert parse_element(ctx2, "a:1;b:0;w:0;t:0") == xgen(ctx2, 1)


@pytest.mark.parametrize("text", [
    "", "a:1", "a:1;b:0;w:0", "a:g;b:0;w:0;t:0", "b:0;a:1;w:0;t:0",
    "a:1bq;b:0;w:0;t:0",
])
def test_encoding_malformed(ctx2, text):
    with pytest.raises(EncodingError):
        parse_element(ctx2, text)


@pytest.mark.parametrize("text", [
    "a:4;b:0;w:0;t:0",      # a-block overflow at n=2
    "a:0;b:0;w:10;t:0",     # w-block overflow
    "a:0;b:0;w:0;t:4",      # t-block overflow
])
def test_encoding_overflow(ctx2, text):
    with pytest.raises(EncodingError):
        parse_element(ctx2, text)


# -- GF(2) matrices and induced automorphisms ----------------------------------------

def test_gl_enumerate_orders():
    assert len(gl_enumerate(2)) == 6
    assert len(gl_enumerate(3)) == 168


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_generators_generate(n):
    gens = gl_generators(n)
    seen = {gf2_identity(n)}
    frontier = [gf2_identity(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = gf2_mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    order = {2: 6, 3: 168, 4: 20160}[n]
    assert len(seen) == order


def test_xor_fold_is_the_xor_span():
    # entry i of the array fold is the scalar fold at s[i], for maps of
    # 0 to 100 bits into object and int64 words, over inputs of 0 to 4096
    # entries (spans of 1 to 12 images, and a narrower last slice); at
    # s = arange(2^k) it is the whole span
    rng = random.Random(12)
    for dtype, image_bits in ((object, 100), (np.int64, 62)):
        for width in (0, 1, 5, 9, 100):
            images = [rng.getrandbits(image_bits) for _ in range(width)]
            s_dtype = object if width > 62 else np.int64
            for length in (0, 1, 7, 4096):
                s = [rng.getrandbits(width) for _ in range(length)]
                got = xor_fold_array(images, np.array(s, dtype=s_dtype), dtype)
                assert got.dtype == dtype
                assert got.tolist() == [xor_fold(images, x) for x in s]
            if width <= 9:
                span = xor_fold_array(images, np.arange(1 << width), dtype)
                assert span.tolist() == [xor_fold(images, x)
                                         for x in range(1 << width)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_outer_matches_a_row_loop(n):
    # row k of the w block is b for each set bit k of a, row by row
    ctx = context(n)
    for a in range(1 << n):
        for b in range(1 << n):
            want = 0
            for k in range(n):
                if a >> k & 1:
                    want ^= b << (k * n)
            assert ctx.outer(a, b) == want, (a, b)


def test_induced_automorphism_identity(ctx2):
    aut = induced_automorphism(ctx2, gf2_identity(2), gf2_identity(2))
    rng = random.Random(5)
    for _ in range(50):
        h = rand_elem(ctx2, rng)
        assert aut.apply(h) == h


def test_induced_automorphism_swap(ctx2):
    # swapping x1 <-> x2 sends w11 to w21
    aut = induced_automorphism(ctx2, (2, 1), gf2_identity(2))
    w11 = comm(ctx2, xgen(ctx2, 1), ygen(ctx2, 1))
    assert aut.apply(w11) == Element(m=1 << w_bit(ctx2, 2, 1))


def test_induced_automorphism_rejects_singular(ctx2):
    with pytest.raises(ValueError):
        induced_automorphism(ctx2, (1, 1), gf2_identity(2))
    assert not gf2_is_invertible((1, 1), 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_pair_images_are_the_generators(n):
    # the image table is in bit order: entry p is the pc generator of bit p
    ctx = context(n)
    ident = gf2_identity(n)
    images = generator_images(ctx, ident, ident)
    assert images == [ctx.unpack(1 << p) for p in range(ctx.total_bits)]


def per_kind_images(ctx, g1, g2):
    """Reference: the images kept per generator kind, keyed by index."""
    n = ctx.n
    x = [Element(a=g1[i]) for i in range(n)]
    y = [Element(b=g2[j]) for j in range(n)]
    w = {(i, j): comm(ctx, x[i - 1], y[j - 1])
         for i in range(1, n + 1) for j in range(1, n + 1)}
    t = {(i, k, j): comm(ctx, w[(i, j)], x[k - 1])
         for i in range(1, n + 1) for k in range(i + 1, n + 1)
         for j in range(1, n + 1)}
    return x, y, w, t


def per_kind_apply(ctx, imgs, h):
    """Reference: rewrite h's normal-form word kind by kind and collect."""
    x, y, w, t = imgs
    out = IDENTITY
    for sym in word_of(ctx, h):
        if sym[0] == "x":
            img = x[sym[1] - 1]
        elif sym[0] == "y":
            img = y[sym[1] - 1]
        elif sym[0] == "w":
            img = w[sym[1:]]
        else:
            img = t[sym[1:]]
        out = mul(ctx, out, img)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_image_table_matches_per_kind_reference(n):
    ctx = context(n)
    mats = gl_enumerate(2)
    pairs = ([(g1, g2) for g1 in mats for g2 in mats] if n == 2
             else gl_generator_pairs(n))
    assert len(pairs) == (36 if n == 2 else 4)
    rng = random.Random(11)
    for g1, g2 in pairs:
        aut = induced_automorphism(ctx, g1, g2)
        imgs = per_kind_images(ctx, g1, g2)
        for _ in range(500):
            h = rand_elem(ctx, rng)
            assert aut.apply(h) == per_kind_apply(ctx, imgs, h)


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b110, 0b011, 0b101]) == 2
    assert gf2_rank([0b100, 0b110, 0b111, 0b001]) == 3
    assert gf2_is_invertible((0b01, 0b11), 2)
    assert not gf2_is_invertible((0b100, 0b010), 2)  # rows wider than n


def test_induced_automorphism_multiplicative_all_pairs(ctx2):
    rng = random.Random(6)
    mats = gl_enumerate(2)
    assert len(mats) ** 2 == 36
    for g1 in mats:
        for g2 in mats:
            aut = induced_automorphism(ctx2, g1, g2)
            for _ in range(25):
                g, h = rand_elem(ctx2, rng), rand_elem(ctx2, rng)
                assert aut.apply(mul(ctx2, g, h)) == \
                    mul(ctx2, aut.apply(g), aut.apply(h))
