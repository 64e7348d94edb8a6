"""Shared fixtures: named small graphs, seeded weighted instances; the
instance builders and ``wdeg`` are re-exported from the library for the test
modules that import them here."""

import random

import pytest

from dcedit.graphs import WeightedGraph, complete, cycle, petersen, random_graph
from dcedit.graphs import weighted_degree as wdeg  # noqa: F401  (re-exported)
from dcedit.problems import (
    EADD, EDEL, VDEL, WDCE, WEDCE, WSRE, ConstraintSet, ProblemInstance,
)
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


def weighted_instance(kind, seed):
    """A seeded instance of ``kind`` on 3-7 vertices with weights above 1 and
    lists that are runs of consecutive values (written as ``a..b`` ranges
    once compressed), plus stored nu/xi lists and non-default nu/xi defaults
    where the kind has them."""
    rng = random.Random(seed)
    g = random_graph(rng.randint(3, 7), 0.5, seed=rng.randrange(10 ** 6))
    for v in g.vertices():
        g = g.set_vertex_weight(v, rng.randint(1, 4))
    for e in g.edges():
        g = g.set_edge_weight(*e, rng.randint(1, 3))
    r = rng.randint(2, 6)

    def some(hi):
        lo = rng.randint(0, hi)
        vals = set(range(lo, rng.randint(lo, hi) + 1))
        vals.add(rng.randint(0, hi))
        return vals

    if kind == WEDCE:
        cs = ConstraintSet(r=r, delta_e={e: some(r) for e in g.edges()})
        return ProblemInstance(kind, g, cs, {VDEL, EDEL}, rng.randint(0, 4))
    delta = {v: some(r) for v in g.vertices()}
    if kind == WDCE:
        cs = ConstraintSet(r=r, delta_v=delta)
    else:
        lam = mu = rng.randint(0, r)
        nu = {e: some(lam) for e in g.edges() if rng.random() < 0.5}
        xi = {}
        if kind == WSRE:
            mu = rng.randint(0, r)
            xi = {p: some(mu) for p in g.non_adjacent_pairs() if rng.random() < 0.5}
        cs = ConstraintSet(r=r, lam=lam, mu=mu if kind == WSRE else None,
                           delta_v=delta, nu=nu, xi=xi, nu_default=some(lam),
                           xi_default=some(mu) if kind == WSRE else None)
    return ProblemInstance(kind, g, cs, {VDEL, EDEL, EADD}, rng.randint(0, 4))


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
