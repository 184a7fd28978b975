"""Graph constructions: the Cayley graph over the whole group, the
bipartite coset-intersection graph, intersection graphs of vertex sets
(line graphs, clique graphs), the derived-subgroup quotient and its
voltage table (no coset graph built), and deterministic exports.

Adjacency in the Cayley graph is by LEFT multiplication: g is adjacent to
s*g for s in S = (X union Y) \\ {1}.  Right multiplication is reserved for
the automorphism action on the coset graph; mixing the two silently breaks
the edge-regularity checks.

The coset graph is the derived graph of one voltage table,
:func:`voltages`: :func:`coset_rows` reads the X rows off ``PackedOps.tx``
and the Y rows off its transpose, and ``verify``'s derived-quotient-cover
checks that table against the scalar :func:`coset_vertex`.

The whole-graph loops run in row blocks through one runner,
:func:`in_blocks`: here the coset-graph build (each ROW_CHUNK key block
writes its own X and Y rows), the row check of ``graph_from_rows``,
``Sigma.row_mismatches``, each layer of the one frontier walk,
:func:`walk` over dense ids (BFS, orbit closure, the derived span) in
spans of 16 * ROW_CHUNK ids, and the runs of the edge-list export;
``symmetry`` runs two more.  With
several blocks the runner starts a thread pool of WORKERS threads, one
per CPU this process may run on, at most MAX_WORKERS, that lasts for
that loop, so loops may nest; a loop of one block (every loop at n = 2)
runs inline and starts no thread.
Results are taken in block order, so graphs, reports and exports are
byte-identical to a serial run.  Before every loop of several blocks,
inline or pooled, glibc is set to one arena, with mmap and trim
thresholds of 33554432 and 134217728 bytes, so block temporaries are
reused in the heap.  The export writes its lines in place, as words
from a table of "0000".."9999".
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

from .bulk import _gather, packed_ops
from .group import (
    EXHAUSTIVE_CAP_BITS,
    CapExceededError,
    Element,
    GroupContext,
    mul,
)

DEFAULT_VERTEX_CAP = 1 << 23
ROW_CHUNK = 1 << 14  # rows per vectorized step of the whole-graph loops
MAX_WORKERS = 4  # threads of the row-block pool at most


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


WORKERS = min(_usable_cpus(), MAX_WORKERS)
# glibc's mallopt parameter numbers, and the values a multi-block loop sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64 bits
TRIM_THRESHOLD_BYTES = 128 << 20


def _set_malloc() -> None:
    """One malloc arena, and blocks' temporaries kept in the heap.

    glibc gives every thread that allocates its own malloc arena, and the
    temporaries a block frees stay in its worker's arena, where the main
    thread cannot reuse them: a blocked loop then peaks higher than a
    serial one.  One arena for all threads keeps the serial peak, so this
    runs before every loop of several blocks (a pool's threads start
    after it) and sets M_ARENA_MAX to 1; the two thresholds keep the
    blocks' freed temporaries in the heap for the next block.  Setting
    them again is harmless; without mallopt (not glibc) it does nothing.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


T = TypeVar("T")
R = TypeVar("R")


def in_blocks(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """fn(item) for every item, yielded in item order.

    More than one item first sets :func:`_set_malloc`'s allocator policy,
    and with more than one CPU the calls then run on a thread pool of
    WORKERS threads that lasts for this loop, at most WORKERS in flight:
    each result taken lets the next item start.  An exception of a block
    is raised here in that block's turn.  Leaving the loop early (``all``
    at its first False) starts no more blocks and waits for those in
    flight.  A single item runs inline and starts no thread.  fn may
    itself call in_blocks: the inner loop gets its own pool.
    """
    if len(items) > 1:
        _set_malloc()
    if len(items) < 2 or WORKERS < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(WORKERS, thread_name_prefix="mixdih-rows") as pool:
        rest = iter(items)
        running = deque(pool.submit(fn, item)
                        for item in islice(rest, WORKERS))
        while running:
            result = running.popleft().result()
            running.extend(pool.submit(fn, item) for item in islice(rest, 1))
            yield result


class GraphConsistencyError(RuntimeError):
    """An internal structural invariant of a build failed (e.g. a
    duplicate edge where a bijection was promised)."""


@dataclass
class GraphData:
    """Immutable indexed adjacency, ids contiguous from 0.

    Graphs are always simple and undirected.  ``rows`` is the read-only
    neighbor table in ``_index_dtype(num_vertices)``: one sorted row per
    vertex, padded with -1 at its end to the widest row (a regular graph
    has no padding).  ``half`` optionally tags a bipartition: the ids
    below it are side 0, the others side 1 (vertex v's side is
    ``v >= half``); None when the graph has no sides.
    """

    num_vertices: int
    num_edges: int
    rows: np.ndarray
    half: int | None = None

    def neighbors(self, v: int) -> np.ndarray:
        row = self.rows[v]
        return row[:np.count_nonzero(row >= 0)]

    def degrees(self) -> np.ndarray:
        """Row lengths in the index dtype; callers only read them.

        Each edge fills two entries of the table, so a table of
        2 * num_edges entries holds no -1 and the graph is regular: its
        degrees are a read-only array repeating the width by a zero
        stride, built without reading the table or allocating per
        vertex.  Otherwise the entries of each row are counted."""
        nv, width = self.rows.shape
        if 2 * self.num_edges == self.rows.size:
            dtype = self.rows.dtype
            return np.ndarray((nv,), dtype, dtype.type(width), strides=(0,))
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


def graph_from_edges(num_vertices: int, u, v) -> GraphData:
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
    return GraphData(num_vertices, len(lo), rows)


def graph_from_rows(rows: np.ndarray, half: int | None = None) -> GraphData:
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
    return GraphData(nv, nv * degree // 2, table, half)


def walk(step: Callable[[np.ndarray], np.ndarray], num_vertices: int,
         roots: Iterable[int]) -> np.ndarray:
    """The steps from the nearest root to every id in range(num_vertices)
    that the roots reach.  ``step`` maps at most ROW_CHUNK frontier ids to
    the ids they reach: a graph's rows, the images under permutations, the
    H' fibres of products.

    The only per-id state is the distance record, whose spare slot holds
    0, so the -1 padding of a graph's rows reads as reached.  Layer d is
    ``dist == d``: each :func:`in_blocks` block lists it over a span of
    16 * ROW_CHUNK ids (spans of ROW_CHUNK ids double a Sigma_3 BFS),
    steps it ROW_CHUNK ids at a time and writes d + 1 over the reached
    -1s, so blocks may run at once in any order.  O(V * diameter), cheap
    on the family's graphs (diameter <= 14 at n=3).  Returns the steps,
    -1 if unreached, in int8; a layer past depth 127 writes -2, and only
    if it reaches an id is the record widened to the index dtype.
    """
    dist = np.full(num_vertices + 1, -1, np.int8)
    dist[-1] = 0  # the spare slot
    dist[np.fromiter(roots, np.intp)] = 0
    span, d = ROW_CHUNK << 4, 0
    while True:
        value = d + 1 if d < np.iinfo(dist.dtype).max else -2

        def advance(lo: int) -> int:
            front = np.flatnonzero(dist[lo:min(lo + span, num_vertices)] == d)
            front += lo
            for i in range(0, len(front), ROW_CHUNK):
                reached = np.asarray(step(front[i:i + ROW_CHUNK]), np.intp)
                reached = reached[dist[reached] == -1]
                dist[reached] = value
            return len(front)

        if not sum(in_blocks(advance, range(0, num_vertices, span))):
            break  # layer d is empty
        if value < 0 and np.any(dist == value):
            dist = dist.astype(_index_dtype(num_vertices))
            dist[dist == value] = d + 1
        d += 1
    return dist[:-1]


def bfs_distances(g: GraphData, root: int) -> np.ndarray:
    """Distance from root to every vertex: the :func:`walk` over g's rows."""
    return walk(lambda block: np.take(g.rows, block, axis=0),
                g.num_vertices, [root])


def bfs_layers(g: GraphData, root: int) -> tuple[list[int], int]:
    """Layer sizes by distance from root; also the unreachable count."""
    dist = bfs_distances(g, root)  # counted per layer: no intp copy
    layers = [int(np.count_nonzero(dist == d))
              for d in range(int(dist.max()) + 1)]
    return layers, len(dist) - sum(layers)


def is_connected(g: GraphData) -> bool:
    return g.num_vertices == 0 or bfs_layers(g, 0)[1] == 0


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
            f"{size}-byte neighbor table")


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

    @property
    def half(self) -> int:  # cosets per side, the first Y-side id
        return self.graph.half

    def edge_ends(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """X and Y ends of the edges of the packed elements z, read off
        their coset keys (the vertex ids of :func:`coset_vertex`)."""
        ops = packed_ops(self.ctx)
        return ops.x_coset_key(z), ops.y_coset_key(z) + ops.scalar(self.half)

    @cached_property
    def row_mismatches(self) -> int:
        """Entries where a built row differs from :func:`coset_rows` (read
        off ``PackedOps.tx``), on both sides, ROW_CHUNK keys at a time: it
        sees rows changed after the build.  Counted once per Sigma; a
        ``dataclasses.replace`` copy counts its own rows.  Rows of another
        length than 2^n raise GraphConsistencyError."""
        ctx, half, rows = self.ctx, self.half, self.graph.rows
        if rows.shape[1] != 1 << ctx.n:
            raise GraphConsistencyError("rows are not of length 2^n")
        xrows, yrows = rows[:half], rows[half:]

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
    closed form, one sorted row of the other side's keys per key.  With
    T[b, a] = tx[b, a] ^ b (``PackedOps.tx``), X key k of class b meets
    the Y keys k ^ T[b, a] of its members (k << n) | a, and Y key r of
    class a the X keys r ^ T[b, a]: one table read in two orientations,
    so each side is the other's transpose.  O(1) per entry."""
    ops = packed_ops(ctx)
    if side not in ("X", "Y"):
        raise ValueError(f"side must be 'X' or 'Y', got {side!r}")
    table = ops.tx ^ np.arange(1 << ctx.n, dtype=ops.dtype)[:, None]
    rows = _gather(table if side == "X" else table.T, keys & ops.mask_n)
    rows ^= keys[:, None]  # in place: one fresh array per call
    rows.sort(axis=1)
    return rows


def build_sigma(ctx: GroupContext, force: bool = False) -> Sigma:
    """Build the coset-intersection graph from its edges {X-coset(z),
    Y-coset(z)}, one for each element z of the group.

    Vertices are the cosets of both sides, numbered by coset_vertex.
    Both sides' rows come from their closed form :func:`coset_rows`, each
    :func:`in_blocks` block writing the rows of ROW_CHUNK keys per side,
    and ``graph_from_rows`` checks that they strictly increase.
    """
    half = _half(ctx)
    nv = 2 * half
    degree = 1 << ctx.n
    _check_cap(nv, degree, force, "coset graph")
    dtype = packed_ops(ctx).dtype
    rows = np.empty((nv, degree), dtype=_index_dtype(nv))

    def fill(lo: int) -> None:
        hi = min(lo + ROW_CHUNK, half)
        keys = np.arange(lo, hi, dtype=dtype)
        xrows = coset_rows(ctx, "X", keys)
        xrows += half  # Y ids are half + key
        rows[lo:hi] = xrows
        rows[half + lo:half + hi] = coset_rows(ctx, "Y", keys)

    list(in_blocks(fill, range(0, half, ROW_CHUNK)))  # run every block
    return Sigma(ctx, graph_from_rows(rows, half))


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
    if g.num_vertices > 1 << EXHAUSTIVE_CAP_BITS:
        raise CapExceededError(f"clique enumeration capped at "
                               f"{1 << EXHAUSTIVE_CAP_BITS} vertices")
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

def voltages(ctx: GroupContext) -> np.ndarray:
    """The voltages zeta[b, a] = ``PackedOps.tx[b, a] >> n`` in Z_2^u.
    A key is its class (low n bits) and v in Z_2^u; by :func:`coset_rows`
    X vertex (b, v) meets Y vertex (a, v ^ zeta[b, a]), so the coset graph
    is the derived graph K_{2^n,2^n} x_zeta Z_2^u (Gross and Tucker,
    *Topological Graph Theory*, 1987, ch. 2)."""
    ops = packed_ops(ctx)
    return ops.tx >> ops.sn


def quotient_by_derived(ctx: GroupContext) -> GraphData:
    """Quotient of the coset graph by the right action of the derived
    subgroup, whose classes are the low n bits of the keys (the b block on
    the X side, the a block on the Y side): K_{2^n,2^n}, returned as its
    rows (X classes 0..2^n-1, Y classes 2^n + a).  That the coset graph
    covers it, as the derived graph of :func:`voltages`, is checked by
    ``verify``'s derived-quotient-cover on the voltage table."""
    two_n = 1 << ctx.n
    ids = np.arange(2 * two_n)
    # each X class's row is every Y class, each Y class's every X class
    return graph_from_rows(np.where(ids < two_n, two_n, 0)[:, None]
                           + ids[:two_n], two_n)


# -- export -----------------------------------------------------------------------

# adjacency entries formatted per write by export_graph; each run in
# flight holds a few copies of its text, so the runs set the export's peak
EXPORT_CHUNK = 1 << 16
# "0000".."9999" as little-endian words, the digit groups of _format_lines
_DIGIT_WORDS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                                    indexing="ij"), axis=-1).view("<u4").ravel()


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

    The lines are written row-major into one byte buffer, each number
    right-aligned in its column's widest width as 4-digit _DIGIT_WORDS
    stored through strided unaligned word views.  The leftmost group is
    shifted right past its leading '0's, into its own field, where the
    group stored next overwrites the zero bytes shifted in; a field
    narrower than 4 is written byte by byte, as a word would spill into
    the next line.  Leading pads are zero bytes, which only a column whose
    least value is shorter than its widest can hold; dropping them leaves
    the lines in row order.  Digits are uint32 when the maximum fits.
    """
    rows = len(columns[0])
    if rows == 0:
        return ""
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    size = sum(map(len, literals)) + sum(widths)  # bytes per line
    buf = np.empty(rows * size, np.uint8)
    lines = buf.reshape(rows, size)
    padded = False
    pos = 0
    for i, lit in enumerate(literals):
        lines[:, pos:pos + len(lit)] = np.frombuffer(lit.encode(), np.uint8)
        pos += len(lit)
        if i == len(columns):
            break
        width = widths[i]
        x = values = columns[i].astype(
            np.uint32 if tops[i] < 1 << 32 else np.uint64)
        if width < 4:
            digits = _DIGIT_WORDS.take(x).view(np.uint8).reshape(rows, 4)
            lines[:, pos:pos + width] = digits[:, 4 - width:]
        else:
            groups = []  # right to left
            for _ in range((width - 1) // 4):
                q = x // 10000
                groups.append(_DIGIT_WORDS.take(x - q * 10000))
                x = q
            lead = width - 4 * len(groups)  # digits of the leftmost group
            groups.append(_DIGIT_WORDS.take(x) >> np.uint32(8 * (4 - lead)))
            starts = [pos, *range(pos + lead, pos + width, 4)]
            for start, word in zip(starts, reversed(groups)):
                np.ndarray((rows,), "<u4", buf, start, (size,))[...] = word
        least = int(values.min())
        for k in range(1, width):  # k digits to the right of this byte
            if least < 10 ** k:  # 0 is written as one digit
                lines[:, pos + width - 1 - k][values < 10 ** k] = 0
                padded = True
        pos += width
    if padded:
        return buf.tobytes().translate(None, b"\0").decode("ascii")
    return str(buf.data, "ascii")  # decoded from the array's own bytes


def export_labels(g: GraphData, out: IO[str],
                  name: Callable[[int], str] | None = None) -> None:
    """Vertex table: <id>\\t<side>\\t<label>, side '-' when untagged and
    label ``name(id)``, empty when no naming is given."""
    for v in range(g.num_vertices):
        side = "-" if g.half is None else "XY"[v >= g.half]
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
