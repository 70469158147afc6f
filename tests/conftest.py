"""Fixtures shared by every test module."""

import pytest

from dualnewton.models import loglinear


@pytest.fixture(autouse=True)
def fresh_point_caches():
    # every test starts with no point evaluated, so pass counts do not
    # depend on the tests that ran before
    loglinear._pass.cache_clear()
