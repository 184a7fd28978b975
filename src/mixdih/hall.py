"""Basic commutators of weight <= 3 and the counting identities behind
the group family's dimensions.

A formal commutator is a binary bracketing whose leaves are generator
indices 1..r.  The basic ones of weight 2 are [a_i,a_j] with j < i; of
weight 3 they are [[a_i,a_j],a_k] with j < i and j <= k.  Everything here
is exact integer combinatorics; the enumerations double as the oracles of
record for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from .group import UnsupportedParameterError

Tree = object  # int leaf or (Tree, Tree) pair


@dataclass(frozen=True)
class FormalCommutator:
    """Binary commutator tree over generator indices; weight = leaf count."""

    tree: Tree
    weight: int

    def leaves(self) -> tuple[int, ...]:
        out: list[int] = []

        def walk(t):
            if isinstance(t, int):
                out.append(t)
            else:
                walk(t[0])
                walk(t[1])

        walk(self.tree)
        return tuple(out)

    def __str__(self) -> str:
        def fmt(t):
            if isinstance(t, int):
                return f"a{t}"
            return f"[{fmt(t[0])},{fmt(t[1])}]"

        return fmt(self.tree)


def _leaf(i: int) -> FormalCommutator:
    return FormalCommutator(i, 1)


def _bracket(c1: FormalCommutator, c2: FormalCommutator) -> FormalCommutator:
    return FormalCommutator((c1.tree, c2.tree), c1.weight + c2.weight)


def enumerate_basic_commutators(r: int, weight: int) -> list[FormalCommutator]:
    """Basic commutators of the given weight over r generators.

    Follows the defining rules directly: a bracket [c_i, c_j] is basic when
    both arguments are basic of smaller weight summing correctly, c_j < c_i
    in the total order (weight first, then index tuple), and, when c_i is
    itself a bracket [c_s, c_t], additionally c_t <= c_j.  The order within
    a weight class is lexicographic on the index tuples.
    """
    if r < 1:
        raise UnsupportedParameterError(f"alphabet size must be >= 1, got {r}")
    if weight not in (1, 2, 3):
        raise UnsupportedParameterError(
            f"only weights 1..3 are supported, got {weight}")

    bc1 = [_leaf(i) for i in range(1, r + 1)]
    if weight == 1:
        return bc1

    # Total order: all of bc1 precedes every weight-2 commutator; rank
    # within bc1 is the generator index.
    def rank1(c: FormalCommutator) -> tuple:
        return (c.weight, c.leaves())

    bc2 = []
    for ci in bc1:
        for cj in bc1:
            if rank1(cj) < rank1(ci):
                bc2.append(_bracket(ci, cj))
    bc2.sort(key=lambda c: c.leaves())
    if weight == 2:
        return bc2

    bc3 = []
    for ci in bc1 + bc2:
        for cj in bc1 + bc2:
            if ci.weight + cj.weight != 3:
                continue
            if not rank1(cj) < rank1(ci):
                continue
            if ci.weight == 2:
                # ci = [c_s, c_t]: require c_t <= c_j
                c_t = ci.tree[1]
                if not (c_t,) <= cj.leaves():
                    continue
            bc3.append(_bracket(ci, cj))
    bc3.sort(key=lambda c: c.leaves())
    return bc3


def bc2_count(r: int) -> int:
    return r * (r - 1) // 2


def bc3_count(r: int) -> int:
    return (r**3 - r) // 3


# -- tuple counting ---------------------------------------------------------

TUPLE_KINDS = ("a", "b", "c", "d")


def tuple_set(n: int, kind: str) -> list[tuple]:
    """Explicit enumeration of the four index-tuple families (the oracle)."""
    if kind == "a":
        return [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)
                if j < i]
    if kind == "b":
        return [(i, j, k) for j in range(1, n + 1) for i in range(1, n + 1)
                for k in range(1, n + 1) if j < i and j < k]
    if kind == "c":
        return [(i, j, k) for j in range(1, n + 1) for i in range(1, n + 1)
                for k in range(1, n + 1) if j < i and j < k and k != i]
    if kind == "d":
        return [(i, j, k) for j in range(1, n + 1) for i in range(1, n + 1)
                for k in range(1, n + 1) if j < i and j <= k]
    raise UnsupportedParameterError(f"unknown tuple kind {kind!r}")


def count_tuples(n: int, kind: str) -> int:
    """Closed-form size of the tuple families; enumeration is the oracle."""
    if n < 2:
        raise UnsupportedParameterError(f"need n >= 2, got {n}")
    if kind == "a":
        return n * (n - 1) // 2
    if kind == "b":
        return n * (n - 1) * (2 * n - 1) // 6
    if kind == "c":
        return n * (n - 1) * (n - 2) // 3
    if kind == "d":
        return (n**3 - n) // 3
    raise UnsupportedParameterError(f"unknown tuple kind {kind!r}")


# -- dimension table --------------------------------------------------------

@dataclass(frozen=True)
class DimensionTable:
    """Exponent bookkeeping for the rank-n group as a 2-power quotient.

    r = 2n generators; m_fk is the exponent of the big elementary-abelian
    layer; u the derived-subgroup exponent, v its complement, order_exp
    the exponent of the full group order.  u + v = m_fk always; the
    constructor enforces it.
    """

    n: int
    r: int
    m_fk: int
    u: int
    v: int
    order_exp: int


def dimension_table(n: int) -> DimensionTable:
    """Evaluate all closed forms and cross-check their consistency."""
    if n < 2:
        raise UnsupportedParameterError(f"need n >= 2, got {n}")
    r = 2 * n
    m_fk = r * (r - 1) * (2 * r - 1) // 6
    u = (n**3 + n**2) // 2
    v = (13 * n**3 - 15 * n**2 + 2 * n) // 6
    if (13 * n**3 - 15 * n**2 + 2 * n) % 6:
        raise ArithmeticError(f"v closed form is not integral at n={n}")
    order_exp = (n**3 + n**2 + 4 * n) // 2
    if u + v != m_fk:
        raise ArithmeticError(
            f"dimension inconsistency at n={n}: u+v={u + v} != m_fk={m_fk}")
    if order_exp != 2 * n + u:
        raise ArithmeticError(
            f"dimension inconsistency at n={n}: order_exp != 2n+u")
    return DimensionTable(n, r, m_fk, u, v, order_exp)


# -- special symbol sets ----------------------------------------------------

@dataclass(frozen=True)
class SpecialSetSizes:
    """Sizes of the symbol sets splitting the weight-3 layer.

    All counts come from explicit enumeration; closed_form_consistent
    records whether the closed forms agreed (enumeration is authoritative).
    """

    n: int
    d_k: int
    b2: int
    b3: int
    b3_prime: int
    bc2_inter_d_i: int
    closed_form_consistent: bool


def special_set_sizes(n: int) -> SpecialSetSizes:
    """Enumerate the symbol sets over r = 2n letters and count them.

    Letters 1..n are the x-side, n+1..2n the y-side.  b2 counts the
    cross pairs [y-side, x-side]; b3 the triples [[y-side, x_j], x_k]
    with j < k; b3_prime the rest of d_k; bc2_inter_d_i the weight-2
    relator symbols lying within a single side.
    """
    if n < 2:
        raise UnsupportedParameterError(f"need n >= 2, got {n}")
    r = 2 * n
    d_k = tuple_set(r, "c")
    b2 = [(i, j) for i in range(n + 1, r + 1) for j in range(1, n + 1)]
    b3 = [(i, j, k) for (i, j, k) in d_k
          if i > n and j <= n and k <= n and j < k]
    b3_set = set(b3)
    b3_prime = [s for s in d_k if s not in b3_set]
    bc2_in_d_i = ([(i, j) for j in range(1, n + 1) for i in range(1, n + 1)
                   if j < i] +
                  [(i, j) for j in range(n + 1, r + 1)
                   for i in range(n + 1, r + 1) if j < i])

    counts = {"d_k": len(d_k), "b2": len(b2), "b3": len(b3),
              "b3_prime": len(b3_prime), "bc2_inter_d_i": len(bc2_in_d_i)}

    # Closed forms; any disagreement (or non-integrality) is flagged and
    # the enumerated counts stand.
    forms = {
        "d_k": (8 * n**3 - 12 * n**2 + 4 * n, 3),
        "b2": (n**2, 1),
        "b3": (n**3 - n**2, 2),
        "b3_prime": (13 * n**3 - 21 * n**2 + 8 * n, 6),
        "bc2_inter_d_i": (n**2 - n, 1),
    }
    consistent = all(num % den == 0 and num // den == counts[name]
                     for name, (num, den) in forms.items())
    return SpecialSetSizes(n=n, **counts, closed_form_consistent=consistent)
