"""Shared fixtures: named small graphs; the instance builders and ``wdeg``
are re-exported from the library for the test modules that import them here."""

import pytest

from dcedit.graphs import WeightedGraph, complete, cycle, petersen
from dcedit.graphs import weighted_degree as wdeg  # noqa: F401  (re-exported)
from dcedit.problems import exact_instance, uniform_instance  # noqa: F401  (re-exported)


def path_graph(n):
    return WeightedGraph({i: 1 for i in range(n)},
                         {(i, i + 1): 1 for i in range(n - 1)})


def star_graph(leaves):
    """K_{1,leaves} with the center as the highest id, so that witness
    scripts that delete 'a leaf' pick vertex 0 first."""
    center = leaves
    return WeightedGraph({i: 1 for i in range(leaves + 1)},
                         {(i, center): 1 for i in range(leaves)})


@pytest.fixture
def k13():
    return star_graph(3)


@pytest.fixture
def triangle():
    return complete(3)


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def c5():
    return cycle(5)


@pytest.fixture
def pete():
    return petersen()
