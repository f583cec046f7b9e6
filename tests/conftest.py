import pytest

from mvindex.candidates import build_matrices
from mvindex.costmodel import CostContext
from mvindex.fixtures import sales_star_candidates, sales_star_catalog, sales_star_workload


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
def ctx(queries, views, indexes, matrices, catalog):
    return CostContext(queries, views, indexes, matrices, catalog)
