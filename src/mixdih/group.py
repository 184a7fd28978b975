"""Exact arithmetic in the rank-n mixed dihedral 2-groups.

The group of rank n is generated by two n-dimensional elementary abelian
subgroups X = <x_1..x_n> and Y = <y_1..y_n>.  Every element has a unique
normal form

    x^a * y^b * w^M * t^T

where a, b are GF(2) vectors of length n, M is an n-by-n GF(2) matrix
(entry (i,j) is the exponent of w_ij = [x_i, y_j]) and T is a GF(2) vector
indexed by triples (i,k,j) with i < k (the exponent of [[x_i,y_j],x_k]).
All four blocks are stored bit-packed in plain ints, little-endian, bit 0
being the lowest index.

Multiplication is defined by collecting generator words back into this
normal form, using the commutation rules of the family:

* y_j x_k = x_k y_j w_kj
* w_ij x_k = x_k w_ij t_(min(i,k),max(i,k),j)  (empty when k = i)
* y, w, t all commute with each other; t is central.

The normal form is a polycyclic presentation: the pc generators are the
bits of the packed encoding, x, y, w then t, and ``GroupContext.letter``
is the bit of a generator symbol.  Only x letters do collection work, so
the rule is one helper that moves x letters left past a y, w and t
block, one x_k at a time.  The one-letter step :func:`mul_gen` runs it
for the x bits and toggles any other bit; :func:`mul` and :func:`inv`
run it too, and everything else (comm, word evaluation) is built on
those.  Every GF(2)-linear map on packed bits is one :func:`xor_fold`,
the XOR of its images of the set bits: ``outer``, :func:`gf2_mat_mul`
and the automorphism induced by GL_n(2) x GL_n(2), whose table
:func:`generator_images` (the image of every pc generator in bit order)
its ``apply`` folds, packed once.  The closed form of a whole product
(outer, phi and psi terms at once) lives only in the packed kernel of
``bulk.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence


class UnsupportedParameterError(ValueError):
    """Raised for parameters outside the family's domain (e.g. n < 2)."""


class CapExceededError(RuntimeError):
    """Raised when an enumeration or build would exceed a resource cap."""


class EncodingError(ValueError):
    """Raised for malformed or out-of-range element text encodings."""


# Generator symbols are plain tuples: ('x', i), ('y', j), ('w', i, j),
# ('t', i, k, j), all indices 1-based, t requiring i < k.
Symbol = tuple
Word = Sequence[Symbol]

DEFAULT_ENUM_CAP_BITS = 24
EXHAUSTIVE_CAP_BITS = 12  # group enumerations, cliques and line graphs

# Largest n whose phi is tabulated (2^(n^2+n) entries): by the scalar kernel
# from its bit loop, by the packed one from its row formula; above, per call.
_TABLE_MAX_N = 3


class Element(NamedTuple):
    """One group element in normal form: four bit-packed GF(2) blocks."""

    a: int = 0  # x-part, n bits
    b: int = 0  # y-part, n bits
    m: int = 0  # w-part, n*n bits, row-major (i,j)
    t: int = 0  # t-part, n*n*(n-1)/2 bits, lexicographic (i,k,j), i<k


IDENTITY = Element()


class GroupContext:
    """Dimensions, index maps and collection tables for one rank n.

    Immutable after construction; all operations taking a context are pure
    functions, safe for concurrent use.
    """

    def __init__(self, n: int):
        if n < 2:
            raise UnsupportedParameterError(f"rank n must be >= 2, got {n}")
        self.n = n
        self.dim_w = n * n
        self.dim_t = n * n * (n - 1) // 2
        self.total_bits = 2 * n + self.dim_w + self.dim_t
        assert self.total_bits == (n**3 + n**2 + 4 * n) // 2
        self._mask_n = (1 << n) - 1
        self._mask_w = (1 << self.dim_w) - 1
        self._mask_t = (1 << self.dim_t) - 1
        # the generator symbol of each packed bit, lowest bit first
        self.bit_symbols: list[Symbol] = (
            [("x", i) for i in range(1, n + 1)]
            + [("y", j) for j in range(1, n + 1)]
            + [("w", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            + [("t", i, k, j) for i in range(1, n + 1)
               for k in range(i + 1, n + 1) for j in range(1, n + 1)])
        self._letters = {sym: p for p, sym in enumerate(self.bit_symbols)}
        self._phi_tab: list[int] | None = None
        if n <= _TABLE_MAX_N:
            self._phi_tab = [self._phi_loop(idx >> n, idx & self._mask_n)
                             for idx in range(1 << (self.dim_w + n))]

    # -- index maps -------------------------------------------------------

    def letter(self, sym: Symbol) -> int:
        """Bit of the pc generator ``sym`` in the packed encoding.  An
        index out of range raises IndexError, an unknown kind ValueError."""
        p = self._letters.get(sym)
        if p is not None:
            return p
        if sym[0] in ("x", "y", "w", "t"):
            raise IndexError(f"generator index {sym} out of range for n={self.n}")
        raise ValueError(f"unknown generator kind {sym!r}")

    def pair_index(self, i: int, k: int) -> int:
        if not (1 <= i < k <= self.n):
            raise IndexError(f"pair ({i},{k}) needs 1 <= i < k <= n")
        return (i - 1) * (2 * self.n - i) // 2 + (k - i - 1)

    # -- packing ----------------------------------------------------------

    def pack(self, h: Element) -> int:
        n = self.n
        return (
            h.a
            | (h.b << n)
            | (h.m << (2 * n))
            | (h.t << (2 * n + self.dim_w))
        )

    def unpack(self, z: int) -> Element:
        n = self.n
        return Element(
            z & self._mask_n,
            (z >> n) & self._mask_n,
            (z >> (2 * n)) & self._mask_w,
            (z >> (2 * n + self.dim_w)) & self._mask_t,
        )

    # Y-side coset keys: the packed b = 0 representative with its b block
    # dropped.  Pure bit ops, so ints and arrays of any element dtype alike.

    def y_key(self, rep):
        """Key of the Y-side coset whose b = 0 representative is rep."""
        return (rep & self._mask_n) | ((rep >> 2 * self.n) << self.n)

    def y_rep(self, key):
        """Packed b = 0 representative of the Y-side coset with this key."""
        return (key & self._mask_n) | ((key >> self.n) << 2 * self.n)

    def phi_rows(self, m, a):
        """phi(m, a) by its bilinear row formula, independent of the
        collection loop ``_phi_loop``: pair (i, k), i < k, of the t block
        is row_i(m) a_k + row_k(m) a_i.  Ints and arrays alike."""
        n, dt = self.n, 0
        rows = [(m >> (i * n)) & self._mask_n for i in range(n)]
        bits = [(a >> k) & 1 for k in range(n)]
        for p, (i, k) in enumerate(combinations(range(n), 2)):
            dt ^= (rows[i] * bits[k] ^ rows[k] * bits[i]) << (p * n)
        return dt

    # -- quadratic collection terms ---------------------------------------

    def outer(self, a: int, b: int) -> int:
        """w-block of y^b x^a collected (and of [x^a, y^b]): row k is b
        for each set bit k of a."""
        return xor_fold([b << (k * self.n) for k in range(self.n)], a)

    def phi(self, m: int, a: int) -> int:
        """t-block picked up when x^a crosses w^m during collection."""
        if self._phi_tab is not None:
            return self._phi_tab[(m << self.n) | a]
        return self._phi_loop(m, a)

    def _phi_loop(self, m: int, a: int) -> int:
        n = self.n
        dt = 0
        aa = a
        while aa:
            low = aa & -aa
            aa ^= low
            k = low.bit_length()
            for i in range(1, n + 1):
                if i == k:
                    continue
                row = (m >> ((i - 1) * n)) & self._mask_n
                if not row:
                    continue
                lo, hi = (i, k) if i < k else (k, i)
                dt ^= row << (self.pair_index(lo, hi) * n)
        return dt

    def __repr__(self) -> str:
        return f"GroupContext(n={self.n}, total_bits={self.total_bits})"


def xor_fold(images: Sequence[int], s: int) -> int:
    """The XOR of images[k] over the set bits k of s: the GF(2)-linear map
    with these images of the unit vectors, at s."""
    out = 0
    while s:
        low = s & -s
        s ^= low
        out ^= images[low.bit_length() - 1]
    return out


def context(n: int) -> GroupContext:
    """Build the context for rank n (rejects n < 2)."""
    return GroupContext(n)


# -- generator symbols ----------------------------------------------------

def generator(ctx: GroupContext, sym: Symbol) -> Element:
    """The Element of a single generator symbol."""
    return ctx.unpack(1 << ctx.letter(sym))


def xgen(ctx: GroupContext, i: int) -> Element:
    return generator(ctx, ("x", i))


def ygen(ctx: GroupContext, j: int) -> Element:
    return generator(ctx, ("y", j))


# -- collection -----------------------------------------------------------

def _collect_x(ctx: GroupContext, a: int, b: int, m: int,
               t: int) -> tuple[int, int]:
    """Move x^a from the right of y^b w^m t^t to its left, one x_k at a
    time, lowest first.  x_k crosses the central t-block for free, picks
    up phi(m, x_k) from the w-block, and turns each y_j into a new w_kj
    (which then commutes with everything it still has to pass).  Returns
    the new (m, t); the y-block is unchanged."""
    n = ctx.n
    while a:
        low = a & -a
        a ^= low
        t ^= ctx.phi(m, low)
        m ^= b << ((low.bit_length() - 1) * n)
    return m, t


def mul_gen(ctx: GroupContext, h: Element, sym: Symbol) -> Element:
    """One-letter collection step: the normal form of ``h * g``.

    An x_k (bit p < n) is collected past h's y, w and t blocks by
    :func:`_collect_x`; a y, w or t generator toggles its own bit.
    """
    p = ctx.letter(sym)
    if p < ctx.n:
        m, t = _collect_x(ctx, 1 << p, h.b, h.m, h.t)
        return Element(h.a ^ 1 << p, h.b, m, t)
    return ctx.unpack(ctx.pack(h) ^ 1 << p)


def word_of(ctx: GroupContext, h: Element) -> list[Symbol]:
    """The normal-form word of h: x block, y block, w block, t block,
    which is the symbols of the set bits of pack(h), lowest first."""
    z = ctx.pack(h)
    return [sym for p, sym in enumerate(ctx.bit_symbols) if z >> p & 1]


def evaluate_word(ctx: GroupContext, word: Word) -> Element:
    """Left fold of mul_gen over a generator word, starting from 1."""
    h = IDENTITY
    for sym in word:
        h = mul_gen(ctx, h, sym)
    return h


def mul(ctx: GroupContext, g: Element, h: Element) -> Element:
    """Product g*h, collected from the left: h's x letters are collected
    past g's y, w and t blocks; h's y, w and t letters only toggle their
    own bits."""
    m, t = _collect_x(ctx, h.a, g.b, g.m, g.t)
    return Element(g.a ^ h.a, g.b ^ h.b, m ^ h.m, t ^ h.t)


def inv(ctx: GroupContext, h: Element) -> Element:
    """Inverse of h: all generators are involutions, so h^-1 is the
    reversed word y^b w^M t^T x^a, collected.  inv_by_word is the literal
    letter-by-letter fold; the test suite cross-checks the two."""
    m, t = _collect_x(ctx, h.a, h.b, h.m, h.t)
    return Element(h.a, h.b, m, t)


def inv_by_word(ctx: GroupContext, h: Element) -> Element:
    """Inverse via literal reversed-word collection (test oracle)."""
    return evaluate_word(ctx, list(reversed(word_of(ctx, h))))


def conj(ctx: GroupContext, g: Element, h: Element) -> Element:
    """Conjugate g^h = h^-1 g h."""
    return mul(ctx, mul(ctx, inv(ctx, h), g), h)


def comm(ctx: GroupContext, g: Element, h: Element) -> Element:
    """Commutator [g,h] = g^-1 h^-1 g h."""
    return mul(ctx, mul(ctx, mul(ctx, inv(ctx, g), inv(ctx, h)), g), h)


def enumerate_elements(ctx: GroupContext) -> Iterator[Element]:
    """All 2^total_bits normal forms in increasing packed-encoding order."""
    if ctx.total_bits > DEFAULT_ENUM_CAP_BITS:
        raise CapExceededError(f"2^{ctx.total_bits} elements exceeds cap "
                               f"2^{DEFAULT_ENUM_CAP_BITS}")
    for z in range(1 << ctx.total_bits):
        yield ctx.unpack(z)


def order_of(ctx: GroupContext, h: Element) -> int:
    """Multiplicative order of h (the family has exponent dividing 4)."""
    k, acc = 1, h
    while acc != IDENTITY:
        acc = mul(ctx, acc, h)
        k += 1
        if k > 1 << ctx.total_bits:
            raise RuntimeError("order computation did not terminate")
    return k


# -- text encoding --------------------------------------------------------

_ENC_RE = re.compile(r"^a:([0-9a-fA-F]+);b:([0-9a-fA-F]+);"
                     r"w:([0-9a-fA-F]+);t:([0-9a-fA-F]+)$")


def format_element(ctx: GroupContext, h: Element) -> str:
    """Text encoding a:<hex>;b:<hex>;w:<hex>;t:<hex>, bit 0 = lowest index."""
    return f"a:{h.a:x};b:{h.b:x};w:{h.m:x};t:{h.t:x}"


def parse_element(ctx: GroupContext, text: str) -> Element:
    """Inverse of format_element; rejects malformed or overflowing fields."""
    mo = _ENC_RE.match(text.strip())
    if mo is None:
        raise EncodingError(f"malformed element encoding: {text!r}")
    a, b, m, t = (int(s, 16) for s in mo.groups())
    if a > ctx._mask_n or b > ctx._mask_n:
        raise EncodingError(f"x/y block overflow for n={ctx.n}: {text!r}")
    if m > ctx._mask_w or t > ctx._mask_t:
        raise EncodingError(f"w/t block overflow for n={ctx.n}: {text!r}")
    return Element(a, b, m, t)


# -- GF(2) matrices and induced automorphisms ------------------------------

GF2Matrix = tuple[int, ...]  # row i (0-based) is a bit-packed row vector


def gf2_identity(n: int) -> GF2Matrix:
    return tuple(1 << i for i in range(n))


def gf2_mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Row-vector convention: (ab)[i] = sum of b[j] over set bits j of a[i]."""
    return tuple(xor_fold(b, row) for row in a)


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of bit-packed row vectors: each row is reduced by
    the basis row with its leading bit until it is zero or leads anew."""
    basis: dict[int, int] = {}  # leading bit -> basis row
    for v in rows:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def gf2_is_invertible(mat: GF2Matrix, n: int) -> bool:
    """mat is n rows of n bits and of rank n."""
    return (len(mat) == n and all(0 <= row < 1 << n for row in mat)
            and gf2_rank(mat) == n)


def gl_enumerate(n: int) -> list[GF2Matrix]:
    """All invertible n x n GF(2) matrices (brute force; small n only)."""
    if n > 4:
        raise CapExceededError("gl_enumerate is for small n")
    out = []
    for code in range(1 << (n * n)):
        mat = tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(n))
        if gf2_is_invertible(mat, n):
            out.append(mat)
    return out


def gl_generators(n: int) -> list[GF2Matrix]:
    """Two standard generators of GL_n(2): a transvection and an n-cycle."""
    transvection = list(gf2_identity(n))
    transvection[0] ^= 2  # row 1 += row 2
    cycle = tuple(1 << ((i + 1) % n) for i in range(n))
    return [tuple(transvection), cycle]


def gl_generator_pairs(n: int) -> list[tuple[GF2Matrix, GF2Matrix]]:
    """Generators of GL_n(2) x GL_n(2): (g, 1) then (1, g) for each g of
    gl_generators."""
    ident = gf2_identity(n)
    return [pair for mat in gl_generators(n)
            for pair in ((mat, ident), (ident, mat))]


def generator_images(ctx: GroupContext, g1: GF2Matrix,
                     g2: GF2Matrix) -> list[Element]:
    """Image of every pc generator, in bit order, under the automorphism
    that the pair (g1, g2) induces: x_i goes to x^(row i of g1), y_j to
    y^(row j of g2), w_ij to [x_i', y_j'] (row-major) and t_(i,k,j) to
    [w_ij', x_k'] for i < k (lexicographic in (i, k, j))."""
    xs = [Element(a=row) for row in g1]
    ys = [Element(b=row) for row in g2]
    ws = [comm(ctx, x, y) for x in xs for y in ys]
    ts = [comm(ctx, ws[i * ctx.n + j], xs[k])
          for i, k in combinations(range(ctx.n), 2) for j in range(ctx.n)]
    return xs + ys + ws + ts


@dataclass
class InducedAutomorphism:
    """Automorphism induced by a pair of GL_n(2) matrices on X and Y,
    held as its table ``images`` of :func:`generator_images`, packed."""

    ctx: GroupContext
    g1: GF2Matrix
    g2: GF2Matrix
    images: list[Element] = field(init=False, repr=False)
    _packed: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.ctx.n
        if not (gf2_is_invertible(self.g1, n) and gf2_is_invertible(self.g2, n)):
            raise ValueError("induced automorphism needs invertible matrices")
        self.images = generator_images(self.ctx, self.g1, self.g2)
        self._packed = [self.ctx.pack(img) for img in self.images]

    def apply(self, h: Element) -> Element:
        """Image of h: the ``xor_fold`` of the packed images over pack(h),
        the product of its letters' images in bit order while the x images
        lie in X, the y images in Y and the w and t images in H' (a = b =
        0), as :func:`generator_images` makes them: no x letter moves."""
        return self.ctx.unpack(xor_fold(self._packed, self.ctx.pack(h)))


def induced_automorphism(ctx: GroupContext, g1: Sequence[int],
                         g2: Sequence[int]) -> InducedAutomorphism:
    return InducedAutomorphism(ctx, tuple(g1), tuple(g2))


# -- presentation verification ---------------------------------------------

def verify_presentation(ctx: GroupContext) -> dict:
    """Evaluate every defining relator over all generator combinations.

    Families: generator squares, commuting within each side, squares of
    cross commutators, [[y,x],y'] vanishing, squares of triple
    commutators, and vanishing of all quadruple commutators (class 3).
    Failures are reported, not raised.
    """
    n = ctx.n
    xs = [xgen(ctx, i) for i in range(1, n + 1)]
    ys = [ygen(ctx, j) for j in range(1, n + 1)]
    gens = xs + ys
    families = []

    def run(name, words):
        failures = 0
        total = 0
        for e in words:
            total += 1
            if e != IDENTITY:
                failures += 1
        families.append({
            "family": name,
            "relators": total,
            "failures": failures,
            "pass": failures == 0,
        })

    run("generator-squares", (mul(ctx, z, z) for z in gens))
    run("same-side-commuting",
        (comm(ctx, u, v) for side in (xs, ys) for u in side for v in side))
    run("cross-commutator-squares",
        (mul(ctx, c, c) for x in xs for y in ys for c in (comm(ctx, x, y),)))
    run("yx-commutator-y-vanishing",
        (comm(ctx, comm(ctx, y, x), y2) for y in ys for x in xs for y2 in ys))
    run("triple-commutator-squares",
        (mul(ctx, c, c) for x in xs for y in ys for z in gens
         for c in (comm(ctx, comm(ctx, x, y), z),)))
    run("quadruple-commutator-vanishing",
        (comm(ctx, comm(ctx, comm(ctx, z1, z2), z3), z4)
         for z1 in gens for z2 in gens for z3 in gens for z4 in gens))

    return {
        "n": n,
        "families": families,
        "pass": all(f["pass"] for f in families),
    }


# -- derived subgroup helpers ----------------------------------------------

def derived_basis(ctx: GroupContext) -> list[Element]:
    """The commutator basis of the derived subgroup.

    [x_i,y_j] for all i,j, then [[x_i,y_j],x_k] for i < k (the identity
    pair's images of the w and t generators); their span is the whole
    derived subgroup.
    """
    ident = gf2_identity(ctx.n)
    return generator_images(ctx, ident, ident)[2 * ctx.n:]
