import itertools

import pytest
from hypothesis import settings
from shared import SLOTS2

from nalg import catalog
from nalg.algebras import Algebra, classify

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


@pytest.fixture(scope="session")
def dim2_tables():
    """All 3**8 tables of dimension 2 with constants in {-1, 0, 1}, each
    under its values at ``SLOTS2``, in the catalog's search order."""
    every = itertools.product((-1, 0, 1), repeat=len(SLOTS2))
    return {values: Algebra(2, dict(zip(SLOTS2, values))) for values in every}


@pytest.fixture(scope="session")
def dim2_reports(dim2_tables):
    """The ``classify`` report of each of ``dim2_tables``, under its key."""
    return {values: classify(A) for values, A in dim2_tables.items()}
