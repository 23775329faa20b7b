"""Shared fixtures.  solve_for_height caches its solution by height, so the
`solved` fixture is solve_for_height itself: many tests read the same few
heights and pay for each once.  `cold_caches` empties every solver cache,
for a test that counts or times the work of a cold solve, or that patches a
name a solve reads and so must not be handed a cached result."""

import pytest

from newton_minres import assemble_profile, singular_ode, solve_for_height

# bound at import, so a test that patches one of these names still clears it
_CACHES = (assemble_profile, solve_for_height, singular_ode._lobatto_integrals,
           singular_ode._segment_maps)


def cold_caches():
    """Clear assemble_profile, solve_for_height and singular_ode's Lobatto
    rules and segment maps."""
    for cached in _CACHES:
        cached.cache_clear()


@pytest.fixture(scope="session")
def solved():
    return solve_for_height
