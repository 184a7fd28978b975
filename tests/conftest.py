"""Shared fixtures: mutated collection rules for the mutation tests."""

import pytest

from mixdih.group import GroupContext


class MutantContext(GroupContext):
    """A rank-n context whose phi term (the t-block that x letters pick up
    crossing the w-block) is deliberately wrong.

    "none" drops the w-over-x commutator entirely; "asym" drops its
    symmetry normalisation, keeping only the pairs i < k.  Tables are
    built from ``_phi_loop``, so both kernels see the mutation.
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


@pytest.fixture
def mutant():
    """mutant(mode) is the rank-2 context with that collection rule;
    "full" is the true one."""
    return lambda mode: GroupContext(2) if mode == "full" \
        else MutantContext(2, mode)
