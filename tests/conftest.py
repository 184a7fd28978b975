"""Shared fixtures: mutated collection rules and corrupted coset graphs
for the mutation tests, and a traced allocation peak for the memory
tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mixdih.group import GroupContext


class MutantContext(GroupContext):
    """A rank-n context whose phi term (the t-block that x letters pick up
    crossing the w-block) is deliberately wrong.

    "none" drops the w-over-x commutator entirely; "asym" drops its
    symmetry normalisation, keeping only the pairs i < k.  Both phi
    computations carry the mutation: ``_phi_loop``, which the scalar
    kernel runs, and the row formula ``phi_rows``, which the packed one
    runs.
    """

    def __init__(self, n: int, mode: str):
        if mode not in ("none", "asym"):
            raise ValueError(f"bad mutation {mode!r}")
        self.mode = mode
        super().__init__(n)

    def _phi_loop(self, m: int, a: int) -> int:
        if self.mode == "none":
            return 0
        n, dt = self.n, 0
        for k in range(1, n + 1):
            if a >> (k - 1) & 1:
                for i in range(1, k):
                    row = (m >> ((i - 1) * n)) & self._mask_n
                    dt ^= row << (self.pair_index(i, k) * n)
        return dt

    def phi_rows(self, m, a):
        if self.mode == "none":
            return m & 0
        n, dt = self.n, m & 0
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                row = (m >> ((i - 1) * n)) & self._mask_n
                dt ^= row * (a >> (k - 1) & 1) << (self.pair_index(i, k) * n)
        return dt


@pytest.fixture
def mutant():
    """mutant(mode) is the rank-2 context with that collection rule;
    "full" is the true one."""
    return lambda mode: GroupContext(2) if mode == "full" \
        else MutantContext(2, mode)


def _first_neighbors_swapped(sigma, r1, r2, resort):
    """sigma with the first neighbors of rows r1 and r2 exchanged; with
    resort both rows are re-sorted (still regular, with strictly
    increasing rows), without it the moved entries stay first, out of
    order.  The other side's rows stay as built."""
    g = sigma.graph
    rows = g.rows.copy()
    pair = rows[[r1, r2]]
    assert pair[0, 0] != pair[1, 0] and not set(pair[0]) & set(pair[1])
    pair[:, 0] = pair[::-1, 0]
    rows[[r1, r2]] = np.sort(pair, axis=1) if resort else pair
    return dataclasses.replace(
        sigma, graph=dataclasses.replace(g, rows=rows))


def with_y_neighbor_moved(sigma, x1, x2, resort=True):
    """sigma with the first Y neighbors of X rows x1 and x2 exchanged, so
    two elements' edges change their Y ends; see
    :func:`_first_neighbors_swapped` for resort."""
    assert max(x1, x2) < sigma.half
    return _first_neighbors_swapped(sigma, x1, x2, resort)


@pytest.fixture
def y_neighbor_moved():
    """y_neighbor_moved(sigma, x1, x2, resort=True): see
    :func:`with_y_neighbor_moved`."""
    return with_y_neighbor_moved


def with_x_neighbor_moved(sigma, y1, y2):
    """sigma with the first X neighbors of Y rows y1 and y2 exchanged and
    both rows re-sorted.  The X rows stay as built, so only a check that
    reads the Y rows can see the change."""
    assert min(y1, y2) >= sigma.half
    return _first_neighbors_swapped(sigma, y1, y2, resort=True)


@pytest.fixture
def x_neighbor_moved():
    """x_neighbor_moved(sigma, y1, y2): see :func:`with_x_neighbor_moved`."""
    return with_x_neighbor_moved


def _peak_alloc(fn) -> int:
    """Peak bytes that fn() allocates above what is allocated when it
    starts, traced by tracemalloc: deterministic, unlike RSS."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_alloc():
    """peak_alloc(fn): see :func:`_peak_alloc`."""
    return _peak_alloc
