import pytest
from hypothesis import settings

from nalg import catalog

# CI runs with --hypothesis-profile=ci: five times the default 100 examples
# (the differential tests scale their own counts by max_examples / 100) and
# a fixed seed, so a failure there reproduces.  Local runs keep the default
# profile.
settings.register_profile("ci", max_examples=500, derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def catalog_algebras():
    return {name: catalog.get(name) for name in catalog.ALGEBRA_NAMES}


@pytest.fixture(scope="session")
def catalog_cogebras():
    return {name: catalog.get(name) for name in catalog.COGEBRA_NAMES}
