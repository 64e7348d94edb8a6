import random

import pytest
from hypothesis import given, strategies as st

from dcedit.graphs import WeightedGraph, complete, cycle, line_graph
from dcedit.problems import (
    EADD,
    EDEL,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    ConstraintSet,
    EditScript,
    ProblemInstance,
    apply_edit_script,
    canonical_steps,
    check_constraints,
    measures,
    pinned_lists,
    star_violation,
    violations,
)

from conftest import exact_instance, uniform_instance, weighted_instance


class TestConstraintSet:
    def test_defaults_fill_full_range(self):
        cs = ConstraintSet(r=3, lam=2, mu=1)
        assert cs.nu_default == frozenset({0, 1, 2})
        assert cs.xi_default == frozenset({0, 1})
        assert cs.nu_of(4, 7) == frozenset({0, 1, 2})

    def test_explicit_entry_beats_default(self):
        cs = ConstraintSet(r=2, lam=2, nu={(1, 0): {2}})
        assert cs.nu_of(0, 1) == frozenset({2})   # stored under the sorted key
        assert cs.nu_of(0, 2) == frozenset({0, 1, 2})

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            ConstraintSet(r=2, lam=3)

    def test_rejects_values_beyond_r(self):
        with pytest.raises(ValueError):
            ConstraintSet(r=2, delta_v={0: {3}})

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            ConstraintSet(r=2, delta_v={0: set()})

    def test_nu_without_lambda(self):
        with pytest.raises(ValueError):
            ConstraintSet(r=2, nu={(0, 1): {1}})

    def test_nu_query_without_lambda(self):
        with pytest.raises(KeyError, match="nu queried on a constraint set without lambda"):
            ConstraintSet(r=2).nu_of(0, 1)

    # The whole message of each refusal; the bounds are checked before any
    # list, r before lambda before mu.
    REFUSALS = [
        (dict(r=-1, lam=5), "r must be non-negative"),
        (dict(r=2, lam=3), "lambda=3 out of range [0..2]"),
        (dict(r=2, lam=-1, mu=5), "lambda=-1 out of range [0..2]"),
        (dict(r=2, lam=1, mu=3), "mu=3 out of range [0..2]"),
        (dict(r=2, lam=5, delta_v={0: set()}), "lambda=5 out of range [0..2]"),
        (dict(r=2, delta_v={0: set()}), "delta[0] is empty"),
        (dict(r=2, delta_e={(1, 0): set()}), "delta[(0, 1)] is empty"),
        (dict(r=2, lam=1, nu={(1, 0): set()}), "nu[(0, 1)] is empty"),
        (dict(r=2, delta_v={0: {3}}), "delta[0]=[3] outside [0..2]"),
        (dict(r=2, delta_e={(2, 1): {0, 5}}), "delta[(1, 2)]=[0, 5] outside [0..2]"),
        (dict(r=2, lam=1, nu={(0, 1): {2}}), "nu[(0, 1)]=[2] outside [0..1]"),
        (dict(r=2, mu=0, xi={(3, 1): {-1}}), "xi[(1, 3)]=[-1] outside [0..0]"),
        (dict(r=2, nu={(0, 1): {1}}), "nu[(0, 1)] given without its bound"),
        (dict(r=2, xi={(1, 0): {0}}), "xi[(0, 1)] given without its bound"),
        (dict(r=2, nu_default={0}), "bad nu default"),
        (dict(r=2, lam=1, nu_default={2}), "bad nu default"),
        (dict(r=2, lam=1, nu_default=set()), "bad nu default"),
        (dict(r=2, mu=1, xi_default={-1}), "bad xi default"),
    ]

    @pytest.mark.parametrize("kw,message", REFUSALS)
    def test_refusal_messages(self, kw, message):
        with pytest.raises(ValueError) as info:
            ConstraintSet(**kw)
        assert str(info.value) == message

    def test_missing_delta_raises_on_lookup(self):
        cs = ConstraintSet(r=2, delta_v={0: {1}})
        with pytest.raises(KeyError):
            cs.delta_of_vertex(1)

    def test_equality_and_replace(self):
        cs = ConstraintSet(r=2, delta_v={0: {1, 2}})
        assert cs == ConstraintSet(r=2, delta_v={0: {2, 1}})
        assert cs.replace(r=3) != cs


class TestProblemInstance:
    def test_wedce_rejects_eadd(self):
        g = complete(3)
        cs = ConstraintSet(r=4, delta_e={e: {4} for e in g.edges()})
        with pytest.raises(ValueError):
            ProblemInstance(kind=WEDCE, graph=g, constraints=cs,
                            ops={VDEL, EADD}, k=1)

    def test_wedce_discards_isolated_vertices(self):
        g = WeightedGraph({0: 1, 1: 1, 2: 1}, {(0, 1): 1})
        cs = ConstraintSet(r=2, delta_e={(0, 1): {2}})
        inst = ProblemInstance(kind=WEDCE, graph=g, constraints=cs,
                               ops={EDEL}, k=0)
        assert inst.graph.vertices() == (0, 1)

    def test_other_kinds_keep_isolated_vertices(self):
        g = WeightedGraph({0: 1, 1: 1, 2: 1}, {(0, 1): 1})
        cs = ConstraintSet(r=2, delta_v={v: {0} for v in g.vertices()})
        inst = ProblemInstance(kind=WDCE, graph=g, constraints=cs,
                               ops={VDEL}, k=0)
        assert inst.graph.n == 3

    def test_unknown_kind_rejected(self):
        g = complete(3)
        cs = ConstraintSet(r=2, delta_v={v: {2} for v in g.vertices()})
        with pytest.raises(ValueError, match="unknown problem kind 'WXYZ'"):
            ProblemInstance(kind="WXYZ", graph=g, constraints=cs, ops={VDEL}, k=0)

    def test_ops_validation(self):
        g = complete(3)
        cs = ConstraintSet(r=2, delta_v={v: {2} for v in g.vertices()})
        with pytest.raises(ValueError):
            ProblemInstance(kind=WDCE, graph=g, constraints=cs, ops=set(), k=0)
        with pytest.raises(ValueError):
            ProblemInstance(kind=WDCE, graph=g, constraints=cs,
                            ops={"contract"}, k=0)

    def test_negative_budget_allowed(self):
        inst = uniform_instance(WDCE, complete(3), r=2, k=-1, ops={VDEL})
        assert inst.k == -1

    @pytest.mark.parametrize("kind", [WERE, WSRE])
    def test_refuses_nu_kinds_without_lambda(self, kind):
        g = complete(3)
        cs = ConstraintSet(r=2, mu=0, delta_v={v: {2} for v in g.vertices()})
        with pytest.raises(ValueError, match=f"^{kind} needs lambda, the bound on nu$"):
            ProblemInstance(kind=kind, graph=g, constraints=cs, ops={VDEL}, k=0)

    def test_refuses_wsre_without_mu(self):
        g = complete(3)
        cs = ConstraintSet(r=2, lam=1, delta_v={v: {2} for v in g.vertices()})
        with pytest.raises(ValueError, match="^WSRE needs mu, the bound on xi$"):
            ProblemInstance(kind=WSRE, graph=g, constraints=cs, ops={VDEL}, k=0)
        # WERE never reads xi, so it needs no mu
        ProblemInstance(kind=WERE, graph=g, constraints=cs, ops={VDEL}, k=0)

    @pytest.mark.parametrize("kind", [WDCE, WERE, WSRE])
    def test_refuses_vertex_without_delta(self, kind):
        g = complete(4)
        cs = ConstraintSet(r=3, lam=1, mu=1, delta_v={0: {3}, 2: {3}})
        with pytest.raises(ValueError, match=r"^no delta list stored for vertex 1$"):
            ProblemInstance(kind=kind, graph=g, constraints=cs, ops={VDEL}, k=0)

    def test_refuses_wedce_edge_without_delta(self):
        g = WeightedGraph({0: 1, 1: 1, 2: 1}, {(0, 1): 1, (1, 2): 1})
        cs = ConstraintSet(r=3, delta_e={(1, 0): {3}})
        with pytest.raises(ValueError, match=r"^no delta list stored for edge \(1, 2\)$"):
            ProblemInstance(kind=WEDCE, graph=g, constraints=cs, ops={EDEL}, k=0)
        # an isolated vertex is discarded first, so it needs no list
        g = WeightedGraph({0: 1, 1: 1, 2: 1}, {(0, 1): 1})
        ProblemInstance(kind=WEDCE, graph=g, constraints=cs, ops={EDEL}, k=0)


class TestStarViolation:
    def test_uniform_singletons_pass(self):
        inst = uniform_instance(WSRE, cycle(5), r=2, k=0, ops={VDEL},
                                lam=0, mu=1)
        assert star_violation(inst) is None

    def test_wide_delta_flagged(self):
        g = cycle(5)
        cs = ConstraintSet(r=2, delta_v={v: {1, 2} for v in g.vertices()})
        inst = ProblemInstance(kind=WDCE, graph=g, constraints=cs, ops={VDEL}, k=0)
        assert "delta" in star_violation(inst)

    def test_wide_default_flagged(self):
        g = cycle(5)
        cs = ConstraintSet(r=2, lam=1, delta_v={v: {2} for v in g.vertices()})
        inst = ProblemInstance(kind=WERE, graph=g, constraints=cs, ops={VDEL}, k=0)
        assert "nu" in star_violation(inst)

    # cycle(5) has non-edges (0, 2), (0, 3), (1, 3), (1, 4) and (2, 4);
    # line_graph(cycle(4)) has the edge tuples of cycle(4) as its vertex ids
    WIDE = [
        (WDCE, cycle(5), dict(r=2, delta_v={0: {2}, 1: {2}, 2: {2}, 3: {1, 2}, 4: {2}}),
         "delta(3)"),
        (WEDCE, cycle(5), dict(r=4, delta_e={(0, 1): {3, 4}, (1, 2): {4}, (2, 3): {4},
                                             (3, 4): {4}, (0, 4): {4}}),
         "delta(0,1)"),
        (WDCE, line_graph(cycle(4)), dict(r=2, delta_v={(0, 1): {2}, (0, 3): {2},
                                                       (1, 2): {1, 2}, (2, 3): {2}}),
         "delta((1, 2))"),
        (WERE, cycle(5), dict(r=2, lam=1, nu={(1, 0): {0, 1}}, nu_default={0}), "nu(0, 1)"),
        (WERE, cycle(5), dict(r=2, lam=1, nu={(0, 2): {0, 1}}, nu_default={0}), "nu(0, 2)"),
        (WERE, cycle(5), dict(r=2, lam=1, nu={(0, 1): {0}}, nu_default={0, 1}), "nu default"),
        (WSRE, cycle(5), dict(r=2, lam=0, mu=1, xi={(0, 2): {0, 1}}, xi_default={1}),
         "xi(0, 2)"),
        (WSRE, cycle(5), dict(r=2, lam=0, mu=1, xi={(0, 2): {1}}, xi_default={0, 1}),
         "xi default"),
    ]

    @pytest.mark.parametrize("kind, g, lists, wide", WIDE)
    def test_names_the_first_wide_list(self, kind, g, lists, wide):
        if kind != WEDCE:
            lists = {"delta_v": {v: {2} for v in g.vertices()}, **lists}
        inst = ProblemInstance(kind=kind, graph=g, constraints=ConstraintSet(**lists),
                               ops={VDEL}, k=0)
        assert star_violation(inst) == f"{wide} is not a singleton"


def broken(inst, g):
    """Every constraint of ``inst`` that ``g`` breaks, in checking order."""
    m = measures(g.vertices(), g.edges(), g.edge_weights(), inst.kind)
    return list(violations(inst, m))


class TestCheckConstraints:
    def test_wdce_checks_vertex_degrees(self):
        inst = uniform_instance(WDCE, cycle(4), r=2, k=0, ops={VDEL})
        assert check_constraints(inst, inst.graph)
        assert broken(inst, inst.graph) == []
        assert broken(inst, inst.graph.delete_edge(0, 1)) == [(0,), (1,)]

    def test_missing_edge_list_raises(self):
        inst = uniform_instance(WEDCE, cycle(5), r=4, k=0, ops={VDEL})
        with pytest.raises(KeyError) as info:
            check_constraints(inst, WeightedGraph({0: 1, 2: 1}, {(0, 2): 1}))
        assert info.value.args == ("no delta list stored for edge (0,2)",)

    def test_wedce_checks_edge_degrees_only(self):
        inst = uniform_instance(WEDCE, cycle(4), r=4, k=0, ops={VDEL})
        assert check_constraints(inst, inst.graph)
        assert not check_constraints(inst, inst.graph.delete_edge(0, 1))
        assert broken(inst, inst.graph.delete_edge(0, 1)) == [(0, 3), (1, 2)]

    def test_were_consults_nu_on_edges(self):
        inst = uniform_instance(WERE, complete(3), r=2, k=0, ops={VDEL}, lam=1)
        assert check_constraints(inst, inst.graph)
        assert broken(inst, inst.graph) == []
        bad = uniform_instance(WERE, complete(3), r=2, k=0, ops={VDEL}, lam=0)
        assert not check_constraints(bad, bad.graph)
        assert broken(bad, bad.graph) == [(0, 1), (0, 2), (1, 2)]

    def test_wsre_consults_xi_on_non_adjacent_pairs(self):
        inst = uniform_instance(WSRE, cycle(5), r=2, k=0, ops={VDEL}, lam=0, mu=1)
        assert check_constraints(inst, inst.graph)
        assert broken(inst, inst.graph) == []
        bad = uniform_instance(WSRE, cycle(5), r=2, k=0, ops={VDEL}, lam=0, mu=0)
        assert not check_constraints(bad, bad.graph)
        assert broken(bad, bad.graph) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        # vertices, then edges, then non-adjacent pairs
        worst = uniform_instance(WSRE, cycle(5), r=3, k=0, ops={VDEL}, lam=1, mu=0)
        assert broken(worst, worst.graph) == (
            [(v,) for v in range(5)] + list(cycle(5).edges())
            + [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])

    def test_exact_instances_always_satisfied(self):
        for kind in (WDCE, WEDCE, WERE, WSRE):
            inst = exact_instance(kind, cycle(6), k=0, ops={VDEL})
            assert check_constraints(inst, inst.graph), kind
            assert broken(inst, inst.graph) == [], kind


def _lists_from_measures(kind, g, near):
    """The lists ``pinned_lists`` should give, read off every measure of g."""
    m = measures(g.vertices(), g.edges(), g.edge_weights())
    sources = {WDCE: ("delta_v",), WEDCE: ("delta_e",), WERE: ("delta_v", "nu"),
               WSRE: ("delta_v", "nu", "xi")}[kind]
    rows = {"delta_v": (m.verts, m.wdeg), "delta_e": (m.edges, m.edeg),
            "nu": (m.edges, m.ecom), "xi": (m.pairs, m.pcom)}
    out = {}
    for name in sources:
        keys, vals = rows[name]
        out[name] = {}
        for x, c in zip(keys, vals):
            ends = (x,) if name == "delta_v" else x
            if near is None or any(end in near for end in ends):
                out[name][x] = frozenset({c})
    return out


class TestPinnedLists:
    @pytest.mark.parametrize("kind", [WDCE, WEDCE, WERE, WSRE])
    def test_matches_the_measures_on_weighted_graphs(self, kind):
        for seed in range(40):
            g = weighted_instance(kind, seed).graph
            rng = random.Random(seed)
            verts = list(g.vertices())
            for near in (None, set(), set(rng.sample(verts, rng.randint(1, len(verts))))):
                assert pinned_lists(kind, g, near) == _lists_from_measures(kind, g, near)

    @pytest.mark.parametrize("kind", [WDCE, WEDCE, WERE, WSRE])
    def test_tuple_ids_are_matched_as_vertices(self, kind):
        g = line_graph(cycle(6))   # ids are the edges of C6
        rng = random.Random(kind)
        verts = list(g.vertices())
        for near in [None] + [set(rng.sample(verts, n)) for n in (1, 2, 3)]:
            assert pinned_lists(kind, g, near) == _lists_from_measures(kind, g, near)
        got = pinned_lists(kind, g, {(0, 1)})
        if kind != WEDCE:
            assert list(got["delta_v"]) == [(0, 1)]


class TestEditScripts:
    def test_canonical_order(self):
        steps = canonical_steps([("eadd", 0, 2), ("vdel", 3), ("edel", 0, 1),
                                 ("vdel", 1)])
        assert steps == (("vdel", 1), ("vdel", 3), ("edel", 0, 1), ("eadd", 0, 2))

    def test_costs(self):
        g = WeightedGraph({0: 2, 1: 1, 2: 1}, {(0, 1): 3, (1, 2): 1})
        assert EditScript.build(g, [("vdel", 0)]).cost == 2
        assert EditScript.build(g, [("edel", 0, 1)]).cost == 3
        assert EditScript.build(g, [("eadd", 0, 2)]).cost == 1

    def test_build_and_apply(self, k13):
        script = EditScript.build(k13, (("vdel", 0),))
        assert script.cost == 1
        edited = apply_edit_script(k13, script)
        assert edited.n == 3 and edited.m == 2

    def test_apply_rejects_declared_cost_mismatch(self, k13):
        bogus = EditScript(steps=(("vdel", 0),), cost=5)
        with pytest.raises(ValueError):
            apply_edit_script(k13, bogus)

    def test_illegal_steps_name_the_step(self, k13):
        with pytest.raises(ValueError, match="step 0"):
            EditScript.build(k13, (("edel", 0, 1),))
        with pytest.raises(ValueError, match="step 1"):
            EditScript.build(k13, (("vdel", 0), ("vdel", 0)))

    # `dcedit verify` prints these after "INVALID: ", so they are pinned
    # byte for byte; the graph is a star on centre 0 with (0, 1) of weight 3
    ILLEGAL = [
        ((("vdel", 7),), "illegal edit at step 0 (('vdel', 7)): no vertex 7"),
        ((("edel", 1, 2),), "illegal edit at step 0 (('edel', 1, 2)): no edge (1, 2)"),
        ((("vdel", 0), ("vdel", 0)), "illegal edit at step 1 (('vdel', 0)): no vertex 0"),
        ((("vdel", 0), ("edel", 0, 1)),
         "illegal edit at step 1 (('edel', 0, 1)): no edge (0, 1)"),
        ((("eadd", 1, 0),), "illegal edit at step 0 (('eadd', 1, 0)): edge (0, 1) already present"),
        ((("eadd", 1, 2), ("eadd", 2, 1)),
         "illegal edit at step 1 (('eadd', 2, 1)): edge (1, 2) already present"),
        ((("vdel", 3), ("eadd", 1, 3)),
         "illegal edit at step 1 (('eadd', 1, 3)): edge (1, 3) references missing vertex 3"),
        ((("eadd", 2, 2),), "illegal edit at step 0 (('eadd', 2, 2)): self-loop at 2"),
        ((("vadd", 5),), "illegal edit at step 0 (('vadd', 5)): unknown operation 'vadd'"),
        (((),), "illegal edit at step 0 (()): unknown operation None"),
        ((("vdel",),), "illegal edit at step 0 (('vdel',)): vdel takes 1 id, got 0"),
        ((("vdel", 1), ("edel", 0)),
         "illegal edit at step 1 (('edel', 0)): edel takes 2 ids, got 1"),
        ((("eadd", 1),), "illegal edit at step 0 (('eadd', 1)): eadd takes 2 ids, got 1"),
        ((("vdel", 1, 2),), "illegal edit at step 0 (('vdel', 1, 2)): vdel takes 1 id, got 2"),
        ((("vdel", [1]),), "illegal edit at step 0 (('vdel', [1])): unhashable type: 'list'"),
        ((("edel", 0, "1"),), "illegal edit at step 0 (('edel', 0, '1')): "
                              "'<=' not supported between instances of 'int' and 'str'"),
    ]

    @pytest.mark.parametrize("steps, message", ILLEGAL)
    def test_illegal_step_messages(self, steps, message):
        g = WeightedGraph({0: 2, 1: 1, 2: 1, 3: 1}, {(0, 1): 3, (0, 2): 1, (0, 3): 1})
        for replay in (EditScript.build, apply_edit_script):
            with pytest.raises(ValueError) as info:
                replay(g, steps)
            assert str(info.value) == message

    def test_replay_prices_adds_and_deletes_in_order(self):
        g = WeightedGraph({0: 2, 1: 1, 2: 1, 3: 1}, {(0, 1): 3, (0, 2): 1, (0, 3): 1})
        steps = (("vdel", 0), ("eadd", 1, 2), ("edel", 1, 2), ("eadd", 2, 3))
        script = EditScript.build(g, iter(steps))
        assert script == EditScript(steps, 5)
        assert apply_edit_script(g, script) == WeightedGraph({1: 1, 2: 1, 3: 1}, {(2, 3): 1})
        assert g.n == 4 and g.m == 3   # the input graph is left as it was

    def test_eadd_requires_both_endpoints(self, k13):
        with pytest.raises(ValueError):
            EditScript.build(k13, (("vdel", 0), ("eadd", 0, 1)))

    def test_added_edge_has_unit_weight(self):
        g = WeightedGraph({0: 1, 1: 1}, {})
        edited = apply_edit_script(g, EditScript.build(g, (("eadd", 0, 1),)))
        assert edited.edge_weight(0, 1) == 1


def _replay_one_by_one(g, steps):
    """``steps`` through the graph's own edit methods, one fresh graph per
    step: ``(graph, cost)``, or ``(index, exception)`` of the first step
    they refuse."""
    cost = 0
    for i, step in enumerate(steps):
        try:
            op, *ids = step
            if op == VDEL and len(ids) == 1:
                cost += g.vertex_weight(*ids)
                g = g.delete_vertex(*ids)
            elif op == EDEL and len(ids) == 2:
                cost += g.edge_weight(*ids)
                g = g.delete_edge(*ids)
            elif op == EADD and len(ids) == 2:
                g = g.add_edge(*ids)
                cost += 1
            else:
                raise ValueError("not a step")
        except (KeyError, ValueError) as exc:
            return i, exc
    return g, cost


_JUNK = ((), ("vadd", 1), ("vdel",), ("edel", 0), ("eadd", 0, 1, 2))


def _random_steps(rng, g):
    """Up to seven steps in no particular order: deletions of the graph's
    elements and of ids it lacks, additions of its non-edges and of other
    pairs (loops included), malformed steps, and repeats of earlier steps."""
    ids = list(g.vertices()) + [g.n]   # one id the graph lacks
    apart = list(g.non_adjacent_pairs())
    steps = []
    for _ in range(rng.randint(0, 7)):
        roll = rng.random()
        if steps and roll < 0.15:
            step = rng.choice(steps)
        elif roll < 0.35:   # often an end of an earlier step
            step = (VDEL, rng.choice(ids + [x for s in steps if len(s) == 3 for x in s[1:]]))
        elif roll < 0.55 and g.m:
            step = (EDEL,) + rng.choice(g.edges())[::rng.choice((1, -1))]
        elif roll < 0.8 and apart:
            step = (EADD,) + rng.choice(apart)[::rng.choice((1, -1))]
        elif roll < 0.95:
            step = (rng.choice((EDEL, EADD)), rng.choice(ids), rng.choice(ids))
        else:
            step = rng.choice(_JUNK)
        steps.append(step)
    return steps


def test_replay_matches_the_graph_methods():
    """``EditScript.build`` and ``apply_edit_script`` replay on the weight
    maps alone; they give the graph, cost and refused step that the graph's
    own methods give, step by step, with the same message for every step
    that is not malformed."""
    seen = dict.fromkeys(("vdel after eadd", "after vdel", "junk", "repeat"), 0)
    for seed in range(2000):
        rng = random.Random(f"replay/{seed}")
        n = rng.randint(2, 6)
        g = WeightedGraph({v: rng.randint(1, 3) for v in range(n)},
                          {(u, v): rng.randint(1, 3) for u in range(n)
                           for v in range(u + 1, n) if rng.random() < 0.5})
        steps = _random_steps(rng, g)
        got, detail = _replay_one_by_one(g, steps)
        if isinstance(got, WeightedGraph):
            assert EditScript.build(g, steps) == EditScript(tuple(steps), detail)
            assert apply_edit_script(g, steps) == got
            assert apply_edit_script(g, EditScript(tuple(steps), detail)) == got
            added = set()
            for step in steps:
                if step[0] == EADD:
                    added.update(step[1:])
                elif step[1] in added:
                    seen["vdel after eadd"] += step[0] == VDEL
            continue
        i = got
        prefix = f"illegal edit at step {i} ({steps[i]!r}): "
        for replay in (EditScript.build, apply_edit_script):
            with pytest.raises(ValueError) as info:
                replay(g, steps)
            assert str(info.value).startswith(prefix), (steps, str(info.value))
            if steps[i] not in _JUNK:
                assert str(info.value) == prefix + detail.args[0]
        gone = {s[1] for s in steps[:i] if s[0] == VDEL}
        if steps[i] in _JUNK:
            seen["junk"] += 1
        elif steps[i][0] != VDEL and gone & set(steps[i][1:]):
            seen["after vdel"] += 1
        seen["repeat"] += steps[i] in steps[:i]
    assert min(seen.values()) >= 10, seen


@given(st.integers(0, 2 ** 10 - 1), st.integers(0, 5))
def test_scripts_apply_deterministically(mask, seed):
    """Random legal deletion sets always apply, price at the sum of the
    deleted weights, and never leave mentioned elements behind."""
    g = complete(5)
    verts = [v for v in g.vertices() if mask >> v & 1][:2]
    steps = [("vdel", v) for v in verts]
    script = EditScript.build(g, canonical_steps(steps))
    edited = apply_edit_script(g, script)
    assert script.cost == len(verts)
    assert all(v not in edited.vertices() for v in verts)
