"""Full automorphism group order via individualization-refinement.

Backtracking over the refinement tree in the usual style: the leftmost
path fixes a base of vertices, splitting the first largest cell at each
node (a choice read off the refined colouring alone, so isomorphism-
invariant).  Sibling branches are pruned by refinement traces (canonical
cell-size profiles) and by orbits, under the generators found so far that
fix the earlier base points, of the base point and of every sibling whose
search failed; every other sibling subtree is searched until it either
yields an automorphism mapping the base point to that sibling or is
exhausted.  Skipping a failed sibling's orbit is sound: were u = v^g the
image of the base point, g^-1 would make v one too, and the search for v
found none (McKay & Piperno, arXiv:1301.1493).  The group order is then
the product over base points of the orbit sizes under the discovered
generators that fix the earlier base points -- no stabilizer chains.

The search owns only the tree walk.  Refinement, orbits and the
automorphism test are the shared ``symmetry.color_refinement``,
``symmetry.orbit_closure`` (the dense frontier walk ``graphs.walk``, from
the tried points or a base point) and ``symmetry.is_graph_automorphism``.
"""

from __future__ import annotations

import numpy as np

from .graphs import GraphData
from .group import CapExceededError
from .symmetry import color_refinement, is_graph_automorphism, orbit_closure

DEFAULT_AUT_CAP = 1024


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    """Split v off just before the rest of its cell."""
    out = colors * 2
    out[v] -= 1
    _, out = np.unique(out, return_inverse=True)
    return out.astype(np.int64)


def check_aut_cap(num_vertices: int) -> None:
    """Refuse a search on more than DEFAULT_AUT_CAP vertices."""
    if num_vertices > DEFAULT_AUT_CAP:
        raise CapExceededError(
            f"automorphism search capped at {DEFAULT_AUT_CAP} vertices")


def automorphism_group_order(g: GraphData) -> int:
    """Order of the full automorphism group of a simple graph."""
    check_aut_cap(g.num_vertices)
    if g.num_vertices == 0:
        return 1
    nb = g.rows
    nv = g.num_vertices

    state = {
        "first_leaf": None,   # colors at the leftmost discrete leaf
        "traces": {},         # level -> invariant along the leftmost path
        "base": [],           # (level, vertex) individualized on the left
        "gens": [],           # discovered automorphism permutations
    }

    def invariant(colors: np.ndarray, ncol: int) -> tuple:
        return (ncol, tuple(np.bincount(colors, minlength=ncol).tolist()))

    def leaf_perm(colors: np.ndarray) -> np.ndarray:
        inv_cur = np.empty(nv, dtype=np.int64)
        inv_cur[colors] = np.arange(nv)
        return inv_cur[state["first_leaf"]]

    def target_cell(colors: np.ndarray, ncol: int) -> list[int]:
        c = int(np.argmax(np.bincount(colors, minlength=ncol)))
        return np.nonzero(colors == c)[0].tolist()

    def orbit_of(points: list[int], fixed: list[int]) -> np.ndarray:
        """Mask of the orbits of points under the generators found so far
        that fix every point of fixed."""
        return orbit_closure([p for p in state["gens"]
                              if np.array_equal(p[fixed], fixed)], points, nv)

    def search_left(colors: np.ndarray, level: int) -> None:
        colors, ncol = color_refinement(nb, colors)
        state["traces"][level] = invariant(colors, ncol)
        if ncol == nv:
            state["first_leaf"] = colors.copy()
            return
        cell = target_cell(colors, ncol)
        b = cell[0]
        state["base"].append((level, b))
        search_left(_individualize(colors, b), level + 1)
        fixed = [v for (lv, v) in state["base"] if lv < level]
        tried = [b]  # b and every sibling whose search failed
        pruned = orbit_of(tried, fixed)
        for v in cell[1:]:
            if pruned[v]:
                continue
            p = search_other(_individualize(colors, v), level + 1)
            if p is None:
                tried.append(v)
            else:
                state["gens"].append(p)
            pruned = orbit_of(tried, fixed)

    def search_other(colors: np.ndarray, level: int) -> np.ndarray | None:
        colors, ncol = color_refinement(nb, colors)
        if state["traces"].get(level) != invariant(colors, ncol):
            return None
        if ncol == nv:
            p = leaf_perm(colors)
            return p if is_graph_automorphism(g, p) else None
        for v in target_cell(colors, ncol):
            p = search_other(_individualize(colors, v), level + 1)
            if p is not None:
                return p
        return None

    search_left(np.zeros(nv, dtype=np.int64), 0)

    order = 1
    for idx, (_, b) in enumerate(state["base"]):
        fixed = [v for (_, v) in state["base"][:idx]]
        order *= int(np.count_nonzero(orbit_of([b], fixed)))
    return order
