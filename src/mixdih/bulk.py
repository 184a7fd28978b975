"""Vectorized packed-element arithmetic for bulk graph construction.

Elements are packed into uint32 words (a | b<<n | m<<2n | t<<(2n+n^2)),
which covers ranks 2 and 3 (10 and 24 bits).  The quadratic collection
terms come from the context's lookup tables, turned into numpy arrays so
that whole-group maps (canonical coset keys, left multiplications) are a
few gather/xor passes.
"""

from __future__ import annotations

import numpy as np

from .group import CapExceededError, Element, GroupContext, InducedAutomorphism


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
    """Numpy mirrors of the collection tables for one context (n <= 3)."""

    def __init__(self, ctx: GroupContext):
        if ctx.total_bits > 32 or ctx._outer_tab is None:
            raise CapExceededError(
                f"bulk ops require tabulated contexts (n <= 3), got n={ctx.n}")
        self.ctx = ctx
        self.n = ctx.n
        self.nn = ctx.dim_w
        self.mask_n = np.uint32(ctx._mask_n)
        self.mask_w = np.uint32(ctx._mask_w)
        self.mask_t = np.uint32(ctx._mask_t)
        self.outer = np.asarray(ctx._outer_tab, dtype=np.uint32)
        self.psi = np.asarray(ctx._psi_tab, dtype=np.uint32)
        self.phi = np.asarray(ctx._phi_tab, dtype=np.uint32)

    # -- block access -------------------------------------------------------

    def a_of(self, z: np.ndarray) -> np.ndarray:
        return z & self.mask_n

    def b_of(self, z: np.ndarray) -> np.ndarray:
        return (z >> np.uint32(self.n)) & self.mask_n

    def m_of(self, z: np.ndarray) -> np.ndarray:
        return (z >> np.uint32(2 * self.n)) & self.mask_w

    def t_of(self, z: np.ndarray) -> np.ndarray:
        return z >> np.uint32(2 * self.n + self.nn)

    def pack(self, a, b, m, t) -> np.ndarray:
        n = np.uint32(self.n)
        return (a | (b << n) | (m << np.uint32(2 * self.n))
                | (t << np.uint32(2 * self.n + self.nn))).astype(np.uint32)

    def all_elements(self) -> np.ndarray:
        return np.arange(1 << self.ctx.total_bits, dtype=np.uint32)

    # -- products -------------------------------------------------------------

    def mul(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Elementwise product, same closed form as the scalar mul."""
        n = np.uint32(self.n)
        a1, b1, m1, t1 = self.a_of(z1), self.b_of(z1), self.m_of(z1), self.t_of(z1)
        a2, b2, m2, t2 = self.a_of(z2), self.b_of(z2), self.m_of(z2), self.t_of(z2)
        ab = (a2 << n) | b1
        m = m1 ^ m2 ^ self.outer[ab]
        t = t1 ^ t2 ^ self.phi[(m1 << n) | a2] ^ self.psi[ab]
        return self.pack(a1 ^ a2, b1 ^ b2, m, t)

    def inv(self, z: np.ndarray) -> np.ndarray:
        n = np.uint32(self.n)
        a, b, m, t = self.a_of(z), self.b_of(z), self.m_of(z), self.t_of(z)
        ab = (a << n) | b
        return self.pack(a, b, m ^ self.outer[ab],
                         t ^ self.phi[(m << n) | a] ^ self.psi[ab])

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
        dm = np.zeros_like(z)
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
        """s*z for one fixed s in X union Y (the generator set of the
        Cayley graph); general s falls back to mul with a constant array."""
        n = np.uint32(self.n)
        if s.m == 0 and s.t == 0 and s.b == 0:
            return z ^ np.uint32(s.a)
        if s.m == 0 and s.t == 0 and s.a == 0:
            a = self.a_of(z)
            idx = (a << n) | np.uint32(s.b)
            return (z ^ np.uint32(s.b << self.n)
                    ^ (self.outer[idx] << np.uint32(2 * self.n))
                    ^ (self.psi[idx] << np.uint32(2 * self.n + self.nn)))
        const = np.full(z.shape, self.ctx.pack(s), dtype=np.uint32)
        return self.mul(const, z)

    # -- canonical coset keys ---------------------------------------------------

    def x_coset_key(self, z: np.ndarray) -> np.ndarray:
        """Key (b,m,t) of the X-side coset of z: zero the a block."""
        return z >> np.uint32(self.n)

    def y_coset_key(self, z: np.ndarray) -> np.ndarray:
        """Key (a,m,t) of the Y-side coset: collect the b-zero member."""
        n = np.uint32(self.n)
        a, b, m, t = self.a_of(z), self.b_of(z), self.m_of(z), self.t_of(z)
        ab = (a << n) | b
        m2 = m ^ self.outer[ab]
        t2 = t ^ self.psi[ab]
        return a | (m2 << n) | (t2 << np.uint32(self.n + self.nn))

    def y_rep(self, keys: np.ndarray) -> np.ndarray:
        """Packed b = 0 representatives of the Y cosets with these keys."""
        keys = np.asarray(keys, dtype=np.uint32)
        return (keys & self.mask_n) | ((keys >> np.uint32(self.n))
                                       << np.uint32(2 * self.n))

    def y_coset(self, keys: np.ndarray) -> np.ndarray:
        """Members of the Y-side cosets with these keys, one row per key:
        column c holds y^c times the representative."""
        rep = self.y_rep(keys)
        return np.stack([self.left_mul(Element(b=c), rep)
                         for c in range(1 << self.n)], axis=1)

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

    def x_rep_of_key(self, key: int) -> Element:
        return self.ctx.unpack(int(key) << self.n)

    def y_rep_of_key(self, key: int) -> Element:
        key = int(key)
        a = key & self.ctx._mask_n
        m = (key >> self.n) & self.ctx._mask_w
        t = key >> (self.n + self.nn)
        return Element(a, 0, m, t)
