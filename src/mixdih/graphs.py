"""Graph constructions: the Cayley graph over the whole group, the
bipartite coset-intersection graph, intersection graphs of vertex sets
(line graphs, clique graphs), the derived-subgroup quotient, and
deterministic exports.

Adjacency in the Cayley graph is by LEFT multiplication: g is adjacent to
s*g for s in S = (X union Y) \\ {1}.  Right multiplication is reserved for
the automorphism action on the coset graph; mixing the two silently breaks
the edge-regularity checks.

The whole-graph loops run in row blocks through one runner,
:func:`in_blocks`: here the coset-graph build (each ROW_CHUNK key block
writes its own X and Y rows), the row check of ``graph_from_rows``,
``Sigma.row_mismatches``, each layer of the one frontier :func:`walk`
(BFS and orbit closure) and the runs of the edge-list export;
``symmetry`` runs two more.  With several blocks the runner uses
a module thread pool of WORKERS threads, one per CPU this process may
run on, at most MAX_WORKERS; a loop of one block (every loop at n = 2)
runs inline and starts no thread.  Results are taken in block order, so
graphs, reports and exports are byte-identical to a serial run.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .bulk import packed_ops
from .group import (
    CapExceededError,
    Element,
    GroupContext,
    mul,
)

DEFAULT_VERTEX_CAP = 1 << 23
DEFAULT_CLIQUE_CAP = 4096
ROW_CHUNK = 1 << 16  # rows per vectorized step of the whole-graph loops
MAX_WORKERS = 4  # threads of the row-block pool at most


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


WORKERS = min(_usable_cpus(), MAX_WORKERS)
_pool = None  # the row-block ThreadPoolExecutor, started by first use
M_ARENA_MAX = -8  # glibc's mallopt parameter number


def _start_pool():
    """The module thread pool, started on first use.

    glibc gives every thread that allocates its own malloc arena, and the
    temporaries a block frees stay in its worker's arena, where the main
    thread cannot reuse them: a blocked loop then peaks higher than a
    serial one.  One arena for all threads keeps the serial peak, so the
    pool sets M_ARENA_MAX to 1 before its threads start; where libc has
    no mallopt (not glibc) that does nothing.  A forked child has none of
    the threads and starts its own pool.
    """
    global _pool
    if _pool is None:
        import ctypes
        from concurrent.futures import ThreadPoolExecutor
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError):
            pass
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            mallopt(M_ARENA_MAX, 1)
        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="mixdih-rows")
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_forget_pool)
    return _pool


def _forget_pool() -> None:
    global _pool
    _pool = None


T = TypeVar("T")
R = TypeVar("R")


def in_blocks(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """fn(item) for every item, yielded in item order.

    With more than one item and more than one CPU the calls run on the
    module thread pool, at most WORKERS of them in flight: each result
    taken lets the next item start.  An exception of a block is raised
    here in that block's turn.  Leaving the loop early (``all`` at its
    first False) cancels the blocks not yet started and waits for those
    running.  A single item runs inline and starts no thread.  fn must
    not itself call in_blocks, whose pool it would wait on.
    """
    if len(items) < 2 or WORKERS < 2:
        yield from map(fn, items)
        return
    pool = _start_pool()
    rest = iter(items)
    running = deque(pool.submit(fn, item) for item in islice(rest, WORKERS))
    try:
        while running:
            result = running.popleft().result()
            running.extend(pool.submit(fn, item) for item in islice(rest, 1))
            yield result
    finally:
        for future in running:
            if not future.cancel():
                future.exception()  # wait; its result is not wanted


class GraphConsistencyError(RuntimeError):
    """An internal structural invariant of a build failed (e.g. a
    duplicate edge where a bijection was promised)."""


@dataclass
class GraphData:
    """Immutable indexed adjacency, ids contiguous from 0.

    Graphs are always simple and undirected.  ``rows`` is the read-only
    neighbor table in ``_index_dtype(num_vertices)``: one sorted row per
    vertex, padded with -1 at its end to the widest row (a regular graph
    has no padding).  ``sides`` optionally tags a bipartition (0/1 per
    vertex).
    """

    num_vertices: int
    num_edges: int
    rows: np.ndarray
    sides: np.ndarray | None = None

    def neighbors(self, v: int) -> np.ndarray:
        row = self.rows[v]
        return row[:np.count_nonzero(row >= 0)]

    def degrees(self) -> np.ndarray:
        """Row lengths; a table whose last column holds no -1 is regular,
        and its degrees are filled in without reading the rest."""
        nv, width = self.rows.shape
        if not self.rows.size or self.rows[:, -1].min() >= 0:
            return np.full(nv, width, self.rows.dtype)
        return (self.rows >= 0).sum(axis=1, dtype=self.rows.dtype)

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return bool(i < len(nb) and nb[i] == v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        u, v = self.edge_array()
        return zip(u.tolist(), v.tolist())

    def edge_array(self, start: int = 0,
                   stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized edge list (u < v), sorted ascending; restricted to
        the edges whose smaller end u lies in [start, stop).  The -1
        padding is never above its row's id, so it drops out."""
        block = self.rows[start:stop]
        src = np.repeat(np.arange(start, start + len(block)), block.shape[1])
        dst = block.ravel()
        keep = src < dst
        return src[keep], dst[keep]


def _index_dtype(count: int):
    """int32 when the ids 0..count-1 fit, else int64."""
    return np.int32 if count <= (1 << 31) - 1 else np.int64


def graph_from_edges(num_vertices: int, u, v, sides=None) -> GraphData:
    """Build GraphData from endpoint arrays, each edge given once; a loop
    or a repeated edge raises GraphConsistencyError."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if np.any(u == v):
        raise GraphConsistencyError("loop edge in construction")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    key = lo * np.int64(num_vertices) + hi
    if len(np.unique(key)) != len(key):
        raise GraphConsistencyError("duplicate edge in construction")
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    degs = np.bincount(src, minlength=num_vertices)
    rows = np.full((num_vertices, degs.max(initial=0)), -1,
                   dtype=_index_dtype(num_vertices))
    # entry i of the sorted list is number i - (entries before its row)
    rows[src, np.arange(len(src)) - (np.cumsum(degs) - degs)[src]] = dst
    rows.flags.writeable = False
    return GraphData(num_vertices, len(lo), rows, sides)


def graph_from_rows(rows: np.ndarray, sides=None) -> GraphData:
    """Build a regular GraphData on its neighbor table, one sorted row
    per vertex: a read-only view of rows, which is copied only when its
    dtype is not the index dtype.

    A row that is not strictly increasing repeats an edge and raises
    GraphConsistencyError.  Loops and the symmetry of the table are the
    caller's to check.
    """
    nv, degree = rows.shape

    def increasing(lo: int) -> bool:
        block = rows[lo:lo + ROW_CHUNK]
        return bool(np.all(block[:, 1:] > block[:, :-1]))

    if not all(in_blocks(increasing, range(0, nv, ROW_CHUNK))):
        raise GraphConsistencyError("repeated neighbor in an adjacency row")
    table = rows.astype(_index_dtype(nv), copy=False).view()
    table.flags.writeable = False
    return GraphData(nv, nv * degree // 2, table, sides)


def walk(step: Callable[[np.ndarray], np.ndarray], num_vertices: int,
         roots: Iterable[int], max_depth: int | None = None) -> np.ndarray:
    """Steps from the nearest root to every vertex (-1 where unreached),
    at most max_depth layers when given.  ``step`` maps a block of
    frontier ids to the ids they reach: a graph's rows for BFS, the
    images under permutations for an orbit closure.

    Each layer scatters the steps of ROW_CHUNK frontier ids per
    :func:`in_blocks` block into a fresh mark (idempotent writes, so
    blocks may run at once), which has a spare slot past the vertices for
    the -1 padding of a graph's rows.  The next frontier,
    ``flatnonzero(mark & (dist < 0))``, is deduped without sorting but
    scans all vertices once per layer: O(V * diameter), cheap on the
    family's graphs (diameter <= 14 at n=3).
    """
    dist = np.full(num_vertices, -1, _index_dtype(num_vertices))
    frontier = np.fromiter(roots, dtype=np.int64)
    dist[frontier] = 0
    d = 0
    while len(frontier) and (max_depth is None or d < max_depth):
        d += 1
        mark = np.zeros(num_vertices + 1, dtype=bool)

        def scatter(lo: int) -> None:
            mark[step(frontier[lo:lo + ROW_CHUNK])] = True

        for _ in in_blocks(scatter, range(0, len(frontier), ROW_CHUNK)):
            pass
        reached = mark[:-1]
        reached &= dist < 0
        frontier = None  # freed before the next one is listed
        frontier = np.flatnonzero(reached)
        dist[frontier] = d
    return dist


def bfs_distances(g: GraphData, root: int,
                  max_depth: int | None = None) -> np.ndarray:
    """Distance from root to every vertex: the :func:`walk` over g's rows."""
    return walk(lambda block: np.take(g.rows, block, axis=0),
                g.num_vertices, [root], max_depth)


def bfs_layers(g: GraphData, root: int) -> tuple[list[int], int]:
    """Layer sizes by distance from root; also the unreachable count."""
    dist = bfs_distances(g, root)  # counted per layer: no intp copy
    layers = [int(np.count_nonzero(dist == d))
              for d in range(int(dist.max()) + 1)]
    return layers, len(dist) - sum(layers)


def is_connected(g: GraphData) -> bool:
    if g.num_vertices == 0:
        return True
    _, unreachable = bfs_layers(g, 0)
    return unreachable == 0


# -- group generator set ------------------------------------------------------

def connection_set(ctx: GroupContext) -> list[Element]:
    """S = (X union Y) minus identity: 2(2^n - 1) involutions."""
    out = [Element(a=a) for a in range(1, 1 << ctx.n)]
    out += [Element(b=b) for b in range(1, 1 << ctx.n)]
    return out


def _check_cap(num_vertices: int, valency: int, force: bool,
               what: str) -> None:
    """Refuse more than DEFAULT_VERTEX_CAP vertices unless forced, stating
    the bytes of the neighbor table, nv x valency entries in the index
    dtype."""
    if num_vertices > DEFAULT_VERTEX_CAP and not force:
        size = num_vertices * valency * np.dtype(
            _index_dtype(num_vertices)).itemsize
        raise CapExceededError(
            f"{what} would have {num_vertices} vertices "
            f"(> {DEFAULT_VERTEX_CAP}), a "
            f"{size}-byte neighbor table; pass force=True / --force to "
            f"build anyway")


# -- Cayley graph --------------------------------------------------------------

def build_gamma(ctx: GroupContext, force: bool = False) -> GraphData:
    """Cayley graph on all group elements: z adjacent to s*z for s in S.

    Vertex ids are the packed element encodings (identity is vertex 0).
    Regular of valency 2(2^n - 1); connected since S generates.  Row z
    is {s*z : s in S}; since every s is an involution, s*(s*z) = z puts
    z back in the row of s*z, which the build checks.
    """
    nv = 1 << ctx.total_bits
    _check_cap(nv, 2 * ((1 << ctx.n) - 1), force, "Cayley graph")
    ops = packed_ops(ctx)
    z = ops.all_elements()
    cols = []
    for s in connection_set(ctx):
        sz = ops.left_mul(s, z)
        if not np.array_equal(ops.left_mul(s, sz), z):
            raise GraphConsistencyError("adjacency is not symmetric")
        cols.append(sz)
    rows = np.sort(np.stack(cols, axis=1), axis=1)
    if np.any(rows == z[:, None]):
        raise GraphConsistencyError("loop edge in construction")
    return graph_from_rows(rows)


# -- coset-intersection graph ---------------------------------------------------

@dataclass
class Sigma:
    """The bipartite coset graph; its vertex ids are those of
    :func:`coset_vertex`, and the edge of the group element z is
    {X-coset(z), Y-coset(z)}, so each edge is named by its element."""

    ctx: GroupContext
    graph: GraphData
    half: int

    def edge_ends(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """X and Y ends of the edges of the packed elements z, read off
        their coset keys (the vertex ids of :func:`coset_vertex`)."""
        ops = packed_ops(self.ctx)
        return ops.x_coset_key(z), ops.y_coset_key(z) + ops.scalar(self.half)

    def x_rows(self) -> np.ndarray:
        """The built X rows, one (sorted) row of 2^n Y ids per X key; a
        graph whose rows are not all of that length raises
        GraphConsistencyError."""
        rows = self.graph.rows
        if rows.shape[1] != 1 << self.ctx.n:
            raise GraphConsistencyError("rows are not of length 2^n")
        return rows[:self.half]

    @cached_property
    def row_mismatches(self) -> int:
        """Entries where a built row differs from its closed form
        :func:`coset_rows`, on both sides, ROW_CHUNK keys at a time.
        Counted once per Sigma; a ``dataclasses.replace`` copy counts its
        own rows."""
        ctx, half = self.ctx, self.half
        xrows, yrows = self.x_rows(), self.graph.rows[half:]

        def mismatches(lo: int) -> int:
            hi = min(lo + ROW_CHUNK, half)
            keys = np.arange(lo, hi, dtype=packed_ops(ctx).dtype)
            x = coset_rows(ctx, "X", keys) + half  # Y ids are half + key
            y = coset_rows(ctx, "Y", keys)
            return int(np.count_nonzero(x != xrows[lo:hi])
                       + np.count_nonzero(y != yrows[lo:hi]))

        return sum(in_blocks(mismatches, range(0, half, ROW_CHUNK)))


def _half(ctx: GroupContext) -> int:
    """Cosets per side, and the id of the first Y-side vertex."""
    return 1 << (ctx.total_bits - ctx.n)


def coset_vertex(ctx: GroupContext, side: str, h: Element) -> int:
    """Vertex id of the coset of h on the given side ("X" or "Y").

    X-side: the packed (b,m,t) key of h with its a block zeroed (left
    x-multiples only toggle it).  Y-side: half plus the ``y_key`` of
    y^b * h for b the b block of h, the unique member with b = 0 (left
    y-multiples keep a).  So both sides are sorted by representative
    encoding, X block first.  Constant on cosets; needs no built graph.
    """
    if side == "X":
        return ctx.pack(h) >> ctx.n
    if side != "Y":
        raise ValueError(f"side must be 'X' or 'Y', got {side!r}")
    return _half(ctx) + ctx.y_key(ctx.pack(mul(ctx, Element(b=h.b), h)))


def vertex_rep(ctx: GroupContext, vid: int) -> Element:
    """Canonical representative of vertex vid: a = 0 on the X side, b = 0
    on the Y side; coset_vertex of it on its side gives vid back."""
    half = _half(ctx)
    if vid < half:
        return ctx.unpack(vid << ctx.n)
    return ctx.unpack(ctx.y_rep(vid - half))


def coset_rows(ctx: GroupContext, side: str, keys: np.ndarray) -> np.ndarray:
    """The rows of the cosets with these keys on one side ("X" or "Y") in
    closed form, one sorted row of the other side's keys per key: for an
    X key k the Y keys of its members (k << n) | a, for a Y key r the X
    keys of its members y^c * rep(r)."""
    ops = packed_ops(ctx)
    if side == "X":
        z = (keys[:, None] << ops.sn) | np.arange(1 << ctx.n, dtype=ops.dtype)
        return np.sort(ops.y_coset_key(z), axis=1)
    if side != "Y":
        raise ValueError(f"side must be 'X' or 'Y', got {side!r}")
    return np.sort(ops.x_coset_key(ops.y_coset(keys)), axis=1)


def build_sigma(ctx: GroupContext, force: bool = False) -> Sigma:
    """Build the coset-intersection graph from its edges {X-coset(z),
    Y-coset(z)}, one for each element z of the group.

    Vertices are the cosets of both sides, numbered by coset_vertex.
    Both sides' rows come from their closed form :func:`coset_rows`, each
    :func:`in_blocks` block writing the rows of ROW_CHUNK keys per side.
    The build checks that the Y rows are the transpose of the X rows.
    With b the b block of X key k, the members y^b * rep(r) for the Y
    keys r stored in X row k, sorted, must be the block (k << n) | a of
    X coset k.  Then each such member of Y coset r lies in X coset k, so
    k is in Y row r, and X row k repeats no key.  Both sides are regular
    of valency 2^n, and ``graph_from_rows`` checks that the Y rows
    strictly increase, so the two sides hold equally many distinct pairs,
    and the Y rows are the transpose.
    """
    half = _half(ctx)
    nv = 2 * half
    degree = 1 << ctx.n
    _check_cap(nv, degree, force, "coset graph")
    ops = packed_ops(ctx)
    rows = np.empty((nv, degree), dtype=_index_dtype(nv))

    def fill(lo: int) -> bool:
        """Write the rows of one key block; whether its X rows transpose."""
        hi = min(lo + ROW_CHUNK, half)
        keys = np.arange(lo, hi, dtype=ops.dtype)
        rows[lo:hi] = coset_rows(ctx, "X", keys) + half
        b = (keys & ops.mask_n)[:, None]  # low n bits of an X key
        xkeys = (rows[lo:hi] - half).astype(ops.dtype)  # as stored
        members = np.sort(ops.y_member(xkeys, b), axis=1).ravel()
        rows[half + lo:half + hi] = coset_rows(ctx, "Y", keys)
        return np.array_equal(members, np.arange(lo << ctx.n, hi << ctx.n))

    if not all(in_blocks(fill, range(0, half, ROW_CHUNK))):
        raise GraphConsistencyError("Y rows are not the transpose of X rows")
    sides = np.zeros(nv, dtype=np.uint8)
    sides[half:] = 1
    return Sigma(ctx, graph_from_rows(rows, sides=sides), half)


# -- intersection graphs and cliques -------------------------------------------

def intersection_graph(sets: Sequence[Iterable[int]]) -> GraphData:
    """Graph on the given vertex sets, in their order, two sets adjacent
    when they share a vertex.  Sets that share several vertices (cliques
    can) are one edge."""
    containing: dict[int, list[int]] = {}
    for i, members in enumerate(sets):
        for v in members:
            containing.setdefault(v, []).append(i)
    pairs = {p for ids in containing.values() for p in combinations(ids, 2)}
    u, v = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
    return graph_from_edges(len(sets), u, v)


def line_graph(g: GraphData) -> GraphData:
    """Line graph: vertices are edge ids (sorted edge order), adjacency is
    nonempty intersection of the edges."""
    return intersection_graph(list(g.edges()))


def maximal_cliques(g: GraphData) -> list[tuple[int, ...]]:
    """Exact maximal-clique enumeration (Bron-Kerbosch with pivoting).

    Returns sorted vertex tuples in a deterministic order.
    """
    if g.num_vertices > DEFAULT_CLIQUE_CAP:
        raise CapExceededError(
            f"clique enumeration capped at {DEFAULT_CLIQUE_CAP} vertices")
    adj = [0] * g.num_vertices
    for v in range(g.num_vertices):
        for w in g.neighbors(v):
            adj[v] |= 1 << int(w)
    out: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            clique = []
            rr = r
            while rr:
                low = rr & -rr
                rr ^= low
                clique.append(low.bit_length() - 1)
            out.append(tuple(clique))
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best, best_cnt = pivot, -1
        pool = pivot_pool
        while pool:
            low = pool & -pool
            pool ^= low
            cand = low.bit_length() - 1
            cnt = bin(p & adj[cand]).count("1")
            if cnt > best_cnt:
                best, best_cnt = cand, cnt
        ext = p & ~adj[best]
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            expand(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            ext &= p

    expand(0, (1 << g.num_vertices) - 1, 0)
    out.sort()
    return out


# -- derived-subgroup quotient ---------------------------------------------------

def quotient_by_derived(ctx: GroupContext, sigma: Sigma) -> GraphData:
    """Quotient of the coset graph by the right action of the derived
    subgroup: complete bipartite of valency 2^n, with uniform fibers.

    The X-side class of a vertex is the b block of its representative,
    the Y-side class the a block (both are constant under right
    multiplication by derived elements); on both sides that is the low n
    bits of the vertex key.  The class pairs are counted from the X rows,
    one X class at a time, and every quotient edge must lift to exactly
    one edge per vertex of its fibers.  The Y rows are read only through
    ``Sigma.row_mismatches``, which must be 0.
    """
    half, n = sigma.half, ctx.n
    two_n = 1 << n
    mask = two_n - 1
    # half is a multiple of 2^n, so each of the 2^n classes on a side (the
    # low n bits of the key) has the same number of vertices, fiber
    fiber = half // two_n
    # [row block, X class, neighbor]; Y ids are half + key, so the low n
    # bits of an id are its class
    rows = sigma.x_rows().reshape(half >> n, two_n, two_n)
    pairs = np.stack([np.bincount(rows[:, c, :].ravel() & mask,
                                  minlength=two_n) for c in range(two_n)])
    if np.any(pairs[pairs > 0] != fiber):
        raise GraphConsistencyError("quotient edges do not lift uniformly")
    if sigma.row_mismatches:
        raise GraphConsistencyError("built rows differ from coset_rows")
    qu, qv = np.nonzero(pairs)
    quotient = graph_from_edges(2 * two_n, qu, two_n + qv,
                                sides=np.array([0] * two_n + [1] * two_n,
                                               dtype=np.uint8))
    # normal cover: valency preserved
    degs = quotient.degrees()
    if not np.all(degs == two_n):
        raise GraphConsistencyError("quotient is not regular of valency 2^n")
    return quotient


# -- export -----------------------------------------------------------------------

# adjacency entries formatted per write by export_graph
EXPORT_CHUNK = 1 << 18


def export_graph(g: GraphData, out: IO[str], fmt: str = "edgelist",
                 n: int | None = None, kind: str | None = None) -> None:
    """Write the graph deterministically (edges ascending, u < v)."""
    if fmt == "edgelist":
        out.write(f"# hn-graph n={n} kind={kind} "
                  f"vertices={g.num_vertices} edges={g.num_edges}\n")
        _write_edges(g, out, ("", " ", "\n"))
    elif fmt == "dot":
        out.write("graph {\n")
        out.write(_format_lines(("  ", ";\n"),
                                np.flatnonzero(g.degrees() == 0)))
        _write_edges(g, out, ("  ", " -- ", ";\n"))
        out.write("}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _write_edges(g: GraphData, out: IO[str], literals: Sequence[str]) -> None:
    """Edge lines in runs of whole rows, about EXPORT_CHUNK table entries
    each, formatted by :func:`in_blocks` and written in order; a run with
    no entry above its first id has no up-edge and is skipped (all of
    Sigma's Y rows)."""
    step = max(1, EXPORT_CHUNK // max(1, g.rows.shape[1]))

    def lines(start: int) -> str:
        if g.rows[start:start + step].max(initial=-1) <= start:
            return ""
        return _format_lines(literals, *g.edge_array(start, start + step))

    for text in in_blocks(lines, range(0, g.num_vertices, step)):
        out.write(text)


def _format_lines(literals: Sequence[str], *columns: np.ndarray) -> str:
    """One line per row i: literals[0], columns[0][i], literals[1], ...,
    literals[-1], the non-negative integers in decimal.

    The lines are laid out as a byte matrix with every number right-aligned
    in its column's widest width, filled column-major (one contiguous row
    per byte position) and transposed once.  Leading pads are zero bytes,
    which only a column whose least value is shorter than its widest can
    hold; dropping them leaves the lines concatenated in row order.  The
    digits are taken in uint32 when the column's maximum fits, else uint64.
    """
    rows = len(columns[0])
    if rows == 0:
        return ""
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    buf = np.empty((sum(map(len, literals)) + sum(widths), rows), np.uint8)
    padded = False
    pos = 0
    for i, lit in enumerate(literals):
        lit_bytes = np.frombuffer(lit.encode(), np.uint8)
        buf[pos:pos + len(lit)] = lit_bytes[:, None]
        pos += len(lit)
        if i == len(columns):
            break
        x = columns[i].astype(np.uint32 if tops[i] < 1 << 32 else np.uint64)
        least = int(columns[i].min())
        low = x.astype(np.uint8)
        for k in range(widths[i]):  # k digits to the right of this one
            q = x // 10
            qlow = q.astype(np.uint8)
            row = buf[pos + widths[i] - 1 - k]
            np.subtract(low, qlow * 10, out=row)  # the digit x - 10q, mod 256
            row += ord("0")
            if k and least < 10 ** k:  # 0 is written as one digit
                row[x == 0] = 0
                padded = True
            x, low = q, qlow
        pos += widths[i]
    lines = np.ascontiguousarray(buf.T)  # copied without the GIL
    del buf  # freed before the lines are decoded: a run peaks lower
    if padded:
        return lines.tobytes().translate(None, b"\0").decode("ascii")
    return str(lines.data, "ascii")  # decoded from the array's own bytes


def export_labels(g: GraphData, out: IO[str],
                  name: Callable[[int], str] | None = None) -> None:
    """Vertex table: <id>\\t<side>\\t<label>, side '-' when untagged and
    label ``name(id)``, empty when no naming is given."""
    for v in range(g.num_vertices):
        side = "-" if g.sides is None else "XY"[g.sides[v]]
        label = "" if name is None else name(v)
        out.write(f"{v}\t{side}\t{label}\n")


def parse_edgelist(lines: Sequence[str]) -> tuple[int, list[tuple[int, int]]]:
    """Read back an exported edge list (for round-trip checks)."""
    header = lines[0]
    if not header.startswith("# hn-graph"):
        raise ValueError("missing hn-graph header")
    fields = dict(tok.split("=") for tok in header[2:].split()[1:])
    nv = int(fields["vertices"])
    edges = [tuple(map(int, ln.split())) for ln in lines[1:] if ln.strip()]
    return nv, edges
