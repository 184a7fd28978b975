"""Vectorized packed-element arithmetic, at every rank.

Elements are packed into one array word (a | b<<n | m<<2n | t<<(2n+n^2))
of ``element_dtype``.  ``PackedOps.mul`` is the closed form of a whole
product: gather/xor passes over the quadratic collection terms, so that
whole-group maps are array passes.  phi comes from the context's row
formula, not from the collection loop that the scalar kernel runs; yx,
the (m,t) words of y^b x^a, is read off the scalar products.  Left
multiplication by y^c meets no phi (phi(0, a) is 0), so it reads yx alone.
"""

from __future__ import annotations

import numpy as np

from .group import _TABLE_MAX_N, Element, GroupContext, mul


def xor_fold_array(images: list[int], s: np.ndarray, dtype) -> np.ndarray:
    """Entry i is the ``group.xor_fold`` of images at s[i]: the XOR of
    images[k] over the set bits k of s[i], read off the XOR span of
    log2 len(s) images at a time (at s = arange(2^k), the span of k)."""
    out, w = np.zeros(len(s), dtype=dtype), max(1, len(s).bit_length() - 1)
    for lo in range(0, len(images), w):
        span = np.zeros(1, dtype=dtype)
        for img in images[lo:lo + w]:
            span = np.concatenate([span, span ^ img])
        out ^= _gather(span, s >> lo & len(span) - 1)
    return out


def _gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx], by intp indices: numpy's own cast gathers 3x slower."""
    return np.take(table, idx.astype(np.intp), axis=0)


def element_dtype(ctx: GroupContext):
    """Array dtype of packed elements: uint32 up to 32 bits (n <= 3),
    uint64 up to 64 (n = 4), Python ints (object arrays) above."""
    bits = ctx.total_bits
    return np.uint32 if bits <= 32 else np.uint64 if bits <= 64 else object


def packed_ops(ctx: GroupContext) -> "PackedOps":
    """Per-context cached PackedOps (the numpy tables are shared)."""
    ops = getattr(ctx, "_packed_ops", None)
    if ops is None:
        ops = PackedOps(ctx)
        ctx._packed_ops = ops
    return ops


class PackedOps:
    """Packed arithmetic on the collection terms of one context.

    Entry (a << n) | b of ``yx`` is the (m,t) word of y^b x^a, the m
    block (outer) in its low n^2 bits and the t block (psi) above.  Entry
    (m << n) | a of ``phi`` is the t-block that x^a picks up crossing
    w^m, tabulated at n <= 3 (None above, where ``phi_of`` evaluates it).
    The key maps XOR the bits above the low n with yx words alone, so
    one 2^n x 2^n table carries Σ: entry [b, a] of ``tx`` is the Y key of
    x^a y^b, whose bits above the low n are the voltage of which Σ is the
    derived graph (``graphs.voltages``).  ``graphs.coset_rows`` reads the
    X rows off it and the Y rows off its transpose; verify's
    derived-quotient-cover checks every entry with the scalar key.
    """

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        self.n = ctx.n
        self.dtype = element_dtype(ctx)
        # Shifts, masks and other scalars in the element dtype: numpy reuses
        # temporary arrays in place only when the other operand has theirs.
        self.scalar = c = np.dtype(self.dtype).type
        self.mask_n, self.mask_w = c(ctx._mask_n), c(ctx._mask_w)
        self.sn, self.s2n, self.snn = c(self.n), c(2 * self.n), c(ctx.dim_w)
        self.yx = np.array(
            [ctx.pack(mul(ctx, Element(b=idx & ctx._mask_n),
                          Element(a=idx >> ctx.n))) >> 2 * ctx.n
             for idx in range(1 << (2 * ctx.n))], dtype=self.dtype)
        self.phi = None
        if ctx.n <= _TABLE_MAX_N:
            idx = np.arange(1 << (ctx.dim_w + self.n), dtype=self.dtype)
            self.phi = ctx.phi_rows(idx >> self.n, idx & self.mask_n)
        low = np.arange(1 << self.n, dtype=self.dtype)
        self.tx = self.y_coset_key(low | low[:, None] << self.sn)

    # -- block access -------------------------------------------------------

    def a_of(self, z: np.ndarray) -> np.ndarray:
        return z & self.mask_n

    def b_of(self, z: np.ndarray) -> np.ndarray:
        return (z >> self.sn) & self.mask_n

    def m_of(self, z: np.ndarray) -> np.ndarray:
        return (z >> self.s2n) & self.mask_w

    def all_elements(self) -> np.ndarray:
        return np.arange(1 << self.ctx.total_bits, dtype=self.dtype)

    # -- collection terms ---------------------------------------------------

    def phi_of(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Elementwise t-block that x^a picks up crossing w^m, m the w
        block of z: the table at n <= 3, the context's row formula above."""
        if self.phi is None:
            return self.ctx.phi_rows(self.m_of(z), a)
        return _gather(self.phi, (self.m_of(z) << self.sn) | a)

    # -- products -------------------------------------------------------------

    def mul(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Elementwise product in closed form: every block XORs, and x^a2
        adds yx crossing y^b1, and phi to the t block crossing w^m1."""
        a2 = self.a_of(z2)
        mt = (_gather(self.yx, (a2 << self.sn) | self.b_of(z1))
              ^ (self.phi_of(z1, a2) << self.snn))
        return z1 ^ z2 ^ (mt << self.s2n)

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
        a, b = self.a_of(g), self.b_of(z)
        dm = sum((a >> k & 1) * b << k * self.sn for k in range(self.n))
        dt = self.phi_of(z, a)
        return z ^ g ^ (dm << self.s2n) ^ (dt << self.s2n + self.snn)

    def evaluate_word(self, words: np.ndarray) -> np.ndarray:
        """Left fold of mul_gen along each row of packed generators,
        starting from 1 (the scalar evaluate_word, one word per row)."""
        out = np.zeros(len(words), dtype=self.dtype)
        for letters in words.T:
            out = self.mul_gen(out, letters)
        return out

    def left_mul(self, s: Element, z: np.ndarray) -> np.ndarray:
        """s*z for one fixed s in X or in Y: an XOR of the a block for s
        in X, which adds no collection terms; y^c crosses x^a by the yx
        word of (a, c) and meets no phi (phi(0, a) is 0)."""
        if s.m or s.t or (s.a and s.b):
            raise ValueError("left_mul takes s in X or in Y")
        if s.a:
            return z ^ s.a
        mt = _gather(self.yx, (self.a_of(z) << self.sn) | s.b)
        return z ^ (s.b << self.sn) ^ (mt << self.s2n)

    # -- canonical coset keys ---------------------------------------------------

    def x_coset_key(self, z: np.ndarray) -> np.ndarray:
        """Key (b,m,t) of the X-side coset of z: zero the a block."""
        return z >> self.sn

    def y_coset_key(self, z: np.ndarray) -> np.ndarray:
        """Key of the Y-side coset of z: the ``y_key`` of its b = 0 member
        y^b z, whose (m,t) word is that of z plus yx of (a, b)."""
        a = self.a_of(z)
        mt = (z >> self.s2n) ^ _gather(self.yx, (a << self.sn) | self.b_of(z))
        return a | (mt << self.sn)

