"""Shared fixtures for the test suite."""

import pytest

from pstirling import stirling


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with empty table and ladder caches, the factorial moments' ladders too.

    The wall-clock budgets in test_acceptance.py then measure cold work,
    whatever the test order or selection.
    """
    stirling.psn_egf_cached.cache_clear()
    stirling.ladder.cache_clear()
    stirling.factorial_ladder.cache_clear()
