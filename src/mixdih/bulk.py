"""Vectorized packed-element arithmetic for bulk graph construction.

Elements are packed into uint32 words (a | b<<n | m<<2n | t<<(2n+n^2)),
which covers ranks 2 and 3 (10 and 24 bits).  ``PackedOps.mul`` is the
closed form of a whole product: gather/xor passes over two tables of
quadratic collection terms, so that whole-group maps are array passes.
The phi table is the context's; yx, the (m,t) words of y^b x^a, is read
off the scalar products, so both kernels follow the one collection rule
of ``group.py``.  Left multiplication by y^c meets no phi (phi(0, a) is
0), so the Y-coset keys and members read yx alone.
"""

from __future__ import annotations

import numpy as np

from .group import (
    CapExceededError,
    Element,
    GroupContext,
    InducedAutomorphism,
    mul,
)


def _xor_span(images: list[int]) -> np.ndarray:
    """Entry s is the XOR of images[k] over the set bits k of s."""
    out = np.zeros(1, dtype=np.uint32)
    for img in images:
        out = np.concatenate([out, out ^ np.uint32(img)])
    return out


def packed_ops(ctx: GroupContext) -> "PackedOps":
    """Per-context cached PackedOps (the numpy tables are shared)."""
    ops = getattr(ctx, "_packed_ops", None)
    if ops is None:
        ops = PackedOps(ctx)
        ctx._packed_ops = ops
    return ops


class PackedOps:
    """Packed arithmetic on the collection tables of one context (n <= 3).

    Entry (a << n) | b of ``yx`` is the (m,t) word of y^b x^a, the m
    block (outer) in its low n^2 bits and the t block (psi) above; entry
    (m << n) | a of ``phi`` is the t-block that x^a picks up crossing w^m.
    """

    def __init__(self, ctx: GroupContext):
        if ctx.total_bits > 32 or ctx._phi_tab is None:
            raise CapExceededError(
                f"bulk ops require tabulated contexts (n <= 3), got n={ctx.n}")
        self.ctx = ctx
        self.n = ctx.n
        self.nn = ctx.dim_w
        self.mask_n = np.uint32(ctx._mask_n)
        self.mask_w = np.uint32(ctx._mask_w)
        self.yx = np.array(
            [ctx.pack(mul(ctx, Element(b=idx & ctx._mask_n),
                          Element(a=idx >> ctx.n))) >> 2 * ctx.n
             for idx in range(1 << (2 * ctx.n))], dtype=np.uint32)
        self.phi = np.asarray(ctx._phi_tab, dtype=np.uint32)

    # -- block access -------------------------------------------------------

    def a_of(self, z: np.ndarray) -> np.ndarray:
        return z & self.mask_n

    def b_of(self, z: np.ndarray) -> np.ndarray:
        return (z >> np.uint32(self.n)) & self.mask_n

    def m_of(self, z: np.ndarray) -> np.ndarray:
        return (z >> np.uint32(2 * self.n)) & self.mask_w

    def all_elements(self) -> np.ndarray:
        return np.arange(1 << self.ctx.total_bits, dtype=np.uint32)

    # -- products -------------------------------------------------------------

    def mul(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Elementwise product in closed form: every block XORs, and x^a2
        adds yx crossing y^b1, and phi to the t block crossing w^m1."""
        n = np.uint32(self.n)
        a2 = self.a_of(z2)
        mt = (self.yx[(a2 << n) | self.b_of(z1)]
              ^ (self.phi[(self.m_of(z1) << n) | a2] << np.uint32(self.nn)))
        return z1 ^ z2 ^ (mt << np.uint32(2 * self.n))

    def inv(self, z: np.ndarray) -> np.ndarray:
        """Elementwise inverse: (y^b w^M t^T) * x^a, the reversed word."""
        a = self.a_of(z)
        return self.mul(z ^ a, a)

    def conj(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Elementwise g^h = h^-1 g h."""
        return self.mul(self.mul(self.inv(h), g), h)

    def comm(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Elementwise [g,h] = g^-1 h^-1 g h."""
        return self.mul(self.mul(self.mul(self.inv(g), self.inv(h)), g), h)

    def mul_gen(self, z: np.ndarray, g: np.ndarray) -> np.ndarray:
        """z*g for packed single generators g (0 stands for no letter).

        The rewriting rule of group.mul_gen, not the closed-form mul: an
        x_k turns each y_j of z into a new w_kj and picks up phi(m, x_k)
        in the t block; every generator toggles its own bit.
        """
        n = self.n
        a, b = self.a_of(g), self.b_of(z)
        dm = np.zeros(np.broadcast_shapes(np.shape(z), np.shape(g)),
                      dtype=np.uint32)
        for k in range(n):
            dm |= np.where(a == np.uint32(1 << k),
                           b << np.uint32(k * n), np.uint32(0))
        dt = self.phi[(self.m_of(z) << np.uint32(n)) | a]
        return (z ^ g ^ (dm << np.uint32(2 * n))
                ^ (dt << np.uint32(2 * n + self.nn)))

    def evaluate_word(self, words: np.ndarray) -> np.ndarray:
        """Left fold of mul_gen along each row of packed generators,
        starting from 1 (the scalar evaluate_word, one word per row)."""
        out = np.zeros(len(words), dtype=np.uint32)
        for letters in words.T:
            out = self.mul_gen(out, letters)
        return out

    def left_mul(self, s: Element, z: np.ndarray) -> np.ndarray:
        """s*z for one fixed s: an XOR of the a block for s in X, which
        adds no collection terms, else mul with s broadcast."""
        if s.b == 0 and s.m == 0 and s.t == 0:
            return z ^ np.uint32(s.a)
        return self.mul(np.uint32(self.ctx.pack(s)), z)

    # -- canonical coset keys ---------------------------------------------------

    def x_coset_key(self, z: np.ndarray) -> np.ndarray:
        """Key (b,m,t) of the X-side coset of z: zero the a block."""
        return z >> np.uint32(self.n)

    def y_coset_key(self, z: np.ndarray) -> np.ndarray:
        """Key of the Y-side coset of z: the ``y_key`` of its b = 0 member
        y^b z, whose (m,t) word is that of z plus yx of (a, b)."""
        n = np.uint32(self.n)
        a = self.a_of(z)
        mt = (z >> np.uint32(2 * self.n)) ^ self.yx[(a << n) | self.b_of(z)]
        return a | (mt << n)

    def y_member(self, keys: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Elementwise y^c times the b = 0 representative of the Y-side
        coset with key keys; yx of (a, c) enters its (m,t) word."""
        n = np.uint32(self.n)
        rep = self.ctx.y_rep(keys)
        mt = self.yx[(self.a_of(rep) << n) | c]
        return rep ^ (c << n) ^ (mt << np.uint32(2 * self.n))

    def y_coset(self, keys: np.ndarray) -> np.ndarray:
        """Members of the Y-side cosets with these keys, one row per key:
        column c holds y^c times the representative."""
        return self.y_member(keys[:, None],
                             np.arange(1 << self.n, dtype=np.uint32))

    # -- induced automorphisms ---------------------------------------------------

    def induced_tables(self, aut: InducedAutomorphism
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather tables of an induced automorphism: the packed images of
        x^a and of y^b, and the XOR-linear map D on the (m,t) bits.

        The images of the w and t generators lie in the derived subgroup,
        which is elementary abelian, so D is the XOR of the images of the
        set bits; an image outside it raises ValueError.
        """
        ctx = self.ctx
        basis = [0] * (self.nn + ctx.dim_t)
        for (i, j), img in aut._w_img.items():
            basis[ctx.w_index(i, j)] = ctx.pack(img)
        for (i, k, j), img in aut._t_img.items():
            basis[self.nn + ctx.t_index(i, k, j)] = ctx.pack(img)
        if any(z & ((1 << 2 * self.n) - 1) for z in basis):
            raise ValueError("a w or t image leaves the derived subgroup")
        return (_xor_span([ctx.pack(e) for e in aut._x_img]),
                _xor_span([ctx.pack(e) for e in aut._y_img]),
                _xor_span(basis))

    def induced_image(self, tables: tuple[np.ndarray, np.ndarray, np.ndarray],
                      z: np.ndarray) -> np.ndarray:
        """Elementwise image of x^a y^b w^M t^T under the induced map:
        x^{a g1} y^{b g2} times D(M, T), whose zero a block adds no
        collection terms, so the product is an XOR."""
        x_img, y_img, d_img = tables
        return (x_img[self.a_of(z)] ^ y_img[self.b_of(z)]
                ^ d_img[z >> np.uint32(2 * self.n)])
