"""Fixtures shared by every test module."""

import pytest

from dualnewton import objectives
from dualnewton.models import loglinear


@pytest.fixture(autouse=True)
def fresh_point_caches():
    # every test starts with no point evaluated and no Jacobian kept, so
    # pass and Jacobian counts do not depend on the tests that ran before
    loglinear._pass.cache_clear()
    objectives._mixture_jacobian.cache_clear()
