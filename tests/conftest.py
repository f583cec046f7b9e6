import os

import pytest
from hypothesis import settings

from mvindex.candidates import build_matrices
from mvindex.costmodel import CostContext
from mvindex.fixtures import sales_star_candidates, sales_star_catalog, sales_star_workload

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no
# example database, so a property that fails in CI fails the same way locally.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def catalog():
    return sales_star_catalog()


@pytest.fixture(scope="session")
def workload(catalog):
    return sales_star_workload(catalog)


@pytest.fixture(scope="session")
def candidates(catalog):
    return sales_star_candidates(catalog)


@pytest.fixture(scope="session")
def views(candidates):
    return candidates[0]


@pytest.fixture(scope="session")
def indexes(candidates):
    return candidates[1]


@pytest.fixture(scope="session")
def matrices(workload, views, indexes):
    return build_matrices(workload, views, indexes)


@pytest.fixture(scope="session")
def queries(workload):
    return list(workload.queries)


@pytest.fixture(scope="session")
def ctx(matrices, catalog):
    return CostContext(matrices, catalog)
