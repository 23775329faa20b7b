"""Shared fixtures.  A full height solve costs about 0.03 s, and many
tests read the same few heights, so solves are memoized once per session
and handed to tests through the `solved` fixture."""

import functools

import pytest

from newton_minres import solve_for_height


@functools.lru_cache(maxsize=32)
def _solved(M):
    return solve_for_height(M)


@pytest.fixture(scope="session")
def solved():
    return _solved
