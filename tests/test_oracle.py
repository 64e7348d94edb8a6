import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dcedit.graphs import WeightedGraph, complete, random_graph
from dcedit.oracle import (
    ORACLE_MAX_VERTICES,
    _universe,
    brute_force_solve,
    enumerate_labeled_graphs,
    induced_regular_bruteforce,
    regular_subgraph_bruteforce,
)
from dcedit.problems import (
    EADD,
    EDEL,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    EditScript,
    Measures,
    apply_edit_script,
    canonical_steps,
    check_constraints,
    measures,
    step_sort_key,
)

from conftest import star_graph, uniform_instance


def test_enumerate_counts():
    assert len(list(enumerate_labeled_graphs(1))) == 1
    assert len(list(enumerate_labeled_graphs(3))) == 8
    assert len(list(enumerate_labeled_graphs(4))) == 64


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        list(enumerate_labeled_graphs(7))


def test_star_leaf_deletion(k13):
    """K_{1,3} with every edge-degree pinned to 3: deleting one leaf fixes
    every remaining edge."""
    inst = uniform_instance(WEDCE, k13, r=3, k=1, ops={VDEL, EDEL})
    res = brute_force_solve(inst)
    assert res.answer
    assert res.witness.steps == (("vdel", 0),)
    assert res.witness.cost == 1

    assert not brute_force_solve(inst.replace(k=0)).answer


def test_witness_is_minimum_cost(k13):
    inst = uniform_instance(WEDCE, k13, r=3, k=3, ops={VDEL, EDEL})
    res = brute_force_solve(inst)
    assert res.witness.cost == 1  # larger budget, same cheapest repair


def test_already_satisfied_has_empty_witness(c5):
    inst = uniform_instance(WERE, c5, r=2, k=2, ops={VDEL}, lam=0)
    res = brute_force_solve(inst)
    assert res.answer and res.witness.steps == ()


def test_ops_filtering(k13):
    only_edel = uniform_instance(WEDCE, k13, r=3, k=1, ops={EDEL})
    res = brute_force_solve(only_edel)
    assert res.answer
    assert all(step[0] == EDEL for step in res.witness.steps)


def test_negative_budget_is_no(k13):
    inst = uniform_instance(WEDCE, k13, r=3, k=-2, ops={VDEL, EDEL})
    assert not brute_force_solve(inst).answer


def test_eadd_connects_original_non_edges_only():
    # two isolated vertices must reach degree 1: only eadd can do that
    g = WeightedGraph({0: 1, 1: 1}, {})
    inst = uniform_instance(WDCE, g, r=1, k=1, ops={EADD})
    res = brute_force_solve(inst)
    assert res.answer and res.witness.steps == (("eadd", 0, 1),)


def test_deletions_not_incident_to_deleted_vertices(k13):
    """Edit sets never pay for an edge already removed by a vertex deletion."""
    inst = uniform_instance(WEDCE, k13, r=3, k=4, ops={VDEL, EDEL})
    res = brute_force_solve(inst)
    deleted = {s[1] for s in res.witness.steps if s[0] == VDEL}
    for s in res.witness.steps:
        if s[0] == EDEL:
            assert s[1] not in deleted and s[2] not in deleted


def test_envelope_warning():
    g = random_graph(ORACLE_MAX_VERTICES + 1, 0.3, seed=1)
    inst = uniform_instance(WDCE, g, r=2, k=0, ops={VDEL})
    with pytest.warns(UserWarning):
        brute_force_solve(inst)


def test_weighted_costs_steer_the_witness():
    # both endpoints violate delta={0}; only the light one fits the budget,
    # even though tie-breaking alone would have picked vertex 0
    g = WeightedGraph({0: 5, 1: 1}, {(0, 1): 2})
    inst = uniform_instance(WDCE, g, r=0, k=1, ops={VDEL})
    res = brute_force_solve(inst)
    assert res.answer and res.witness.steps == (("vdel", 1),)


def test_universe_shares_step_and_measure_tuples():
    """A universe makes each step tuple and each vertex pair once and
    stores equal measure tuples once."""
    g = random_graph(6, 0.5, seed=4)
    universe = _universe(g, 2, True)
    steps = [s for cand in universe for s in cand.steps]
    assert len(steps) > len(set(steps)) > 0
    assert len({id(s) for s in steps}) == len(set(steps))
    for field in ("wdeg", "edges", "edeg", "pairs", "pcom"):
        values = [getattr(cand, field) for cand in universe]
        assert len(values) > len(set(values))
        assert len({id(v) for v in values}) == len(set(values)), field
    pairs = [p for cand in universe for p in cand.edges + cand.pairs]
    assert len(pairs) > len(set(pairs)) == 15
    assert len({id(p) for p in pairs}) == len(set(pairs))


def _weighted_graph(rng, n):
    return WeightedGraph({v: rng.randint(1, 3) for v in range(n)},
                         {(u, v): rng.randint(1, 3) for u in range(n)
                          for v in range(u + 1, n) if rng.random() < 0.5})


def _enumerate_edit_sets(g, cap, include_adds):
    """``(cost, steps, mask)`` of every legal edit set of cost <= cap, from
    all step combinations (each costs at least 1) priced by ``EditScript.build``."""
    steps = [(VDEL, v) for v in g.vertices()] + [(EDEL,) + e for e in g.edges()]
    if include_adds:
        steps += [(EADD,) + p for p in g.non_adjacent_pairs()]
    out = []
    for size in range(min(cap, len(steps)) + 1):
        for chosen in combinations(steps, size):
            gone = {s[1] for s in chosen if s[0] == VDEL}
            if any(s[0] != VDEL and (s[1] in gone or s[2] in gone) for s in chosen):
                continue
            cost = EditScript.build(g, chosen).cost
            if cost <= cap:
                mask = sum({VDEL: 1, EDEL: 2, EADD: 4}[op]
                           for op in {s[0] for s in chosen})
                out.append((cost, canonical_steps(chosen), mask))
    out.sort(key=lambda c: (c[0], [step_sort_key(s) for s in c[1]]))
    return out


# Orders to read a fresh candidate's fields in: the edge and pair fields are
# derived on first read, so the pair fields may come before the edges.
_READ_ORDERS = (Measures._fields,
                ("pairs", "pcom", "verts", "wdeg", "edges", "edeg", "ecom"))


@pytest.mark.parametrize("seed", range(24))
def test_universe_matches_definition(seed):
    """The universe is every legal edit set of cost <= cap, in (cost,
    canonical script) order, and its measures, read in either order from a
    fresh universe, are ``problems.measures`` of the edited graph."""
    rng = random.Random(f"universe/{seed}")
    g = _weighted_graph(rng, 1 + seed % 6)
    for cap in range(5):
        for include_adds in (False, True):
            expected = _enumerate_edit_sets(g, cap, include_adds)
            for order in _READ_ORDERS:
                universe = _universe.__wrapped__(g, cap, include_adds)
                assert [(c.cost, c.steps, c.mask) for c in universe] == expected
                for cand in universe:
                    edited = apply_edit_script(g, EditScript(cand.steps, cand.cost))
                    m = measures(edited.vertices(), edited.edges(), edited.edge_weights())
                    assert {f: getattr(cand, f) for f in order} == m._asdict(), \
                        (cap, include_adds, order, cand.steps)


def _derived(cand, field):
    """Is ``field`` of ``cand`` set?  This read derives nothing."""
    try:
        object.__getattribute__(cand, field)
    except AttributeError:
        return False
    return True


def test_universe_derives_common_counts_on_first_read():
    """A WERE scan tests vertex degrees first, so only the candidates whose
    degrees all pass have their common counts derived."""
    g = random_graph(6, 0.5, seed=8)
    inst = uniform_instance(WERE, g, r=2, k=2, ops={VDEL, EDEL, EADD}, lam=2)
    _universe.cache_clear()
    assert not brute_force_solve(inst).answer
    universe = _universe(g, 2, True)
    passed = [c for c in universe if set(c.wdeg) <= {2}]
    assert 0 < len(passed) < len(universe)
    for field in ("edges", "ecom", "pairs", "pcom"):
        assert [c for c in universe if _derived(c, field)] == passed, field


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from([WDCE, WEDCE, WERE, WSRE]),
       st.integers(0, 3))
def test_witness_validity(seed, kind, k):
    """Any yes-witness applies legally, fits the budget, and satisfies the
    constraints; raising k never flips yes to no."""
    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 5), rng.choice([0.3, 0.6]),
                     seed=rng.randrange(10 ** 6))
    r = rng.randint(1, 3)
    inst = uniform_instance(kind, g, r=r, k=k,
                            ops=rng.choice([{VDEL}, {EDEL}, {VDEL, EDEL}]),
                            lam=rng.randint(0, r), mu=rng.randint(0, r))
    res = brute_force_solve(inst)
    if res.answer:
        edited = apply_edit_script(inst.graph, res.witness)
        assert res.witness.cost <= inst.k
        assert check_constraints(inst, edited)
        assert brute_force_solve(inst.replace(k=k + 1)).answer
    else:
        assert res.witness is None


def test_induced_regular_bruteforce_examples(k4, c5):
    assert induced_regular_bruteforce(k4, 3)
    assert induced_regular_bruteforce(c5, 2)
    assert not induced_regular_bruteforce(c5, 3)
    assert induced_regular_bruteforce(c5, 0)  # any single vertex qualifies
    assert induced_regular_bruteforce(WeightedGraph({0: 1}, {}), 0)


def test_regular_subgraph_bruteforce_examples(k4):
    assert regular_subgraph_bruteforce(k4, 2)      # a triangle survives
    assert not regular_subgraph_bruteforce(complete(3), 3)
    assert regular_subgraph_bruteforce(star_graph(3), 1)
