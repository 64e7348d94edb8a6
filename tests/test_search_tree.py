import random
from importlib import import_module

import pytest

from dcedit.graphs import (
    WeightedGraph,
    common_neighbor_count,
    random_graph,
    weighted_degree,
)
from dcedit.kernelize import kernelize
from dcedit.oracle import brute_force_solve
from dcedit.problems import (
    ConstraintSet,
    EADD,
    EDEL,
    ProblemInstance,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    apply_edit_script,
    check_constraints,
)
from dcedit import search_tree
from dcedit.search_tree import (
    solve,
    solve_wdce_bst,
    solve_wedce_bst,
    solve_were_bst,
    solve_wsre,
    tr,
)

from conftest import exact_instance, uniform_instance, weighted_instance

# the package's ``kernelize`` attribute is the function
kernelize_module = import_module("dcedit.kernelize")


class TestTreeSize:
    def test_frozen_values(self):
        assert tr(7, 1) == 8
        assert tr(9, 2) == 91
        assert tr(2, 0) == 1 and tr(50, 0) == 1

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            tr(1, 2)
        with pytest.raises(ValueError):
            tr(7, -1)


class TestWedceBst:
    def test_star_needs_one_leaf_deletion(self, k13):
        inst = uniform_instance(WEDCE, k13, r=3, k=1, ops={VDEL, EDEL})
        rep = solve_wedce_bst(inst)
        assert rep.answer
        assert rep.tree_bound == tr(2 * 3 + 5, 1)
        assert rep.nodes_visited <= rep.tree_bound
        edited = apply_edit_script(inst.graph, rep.witness)
        assert check_constraints(inst, edited)
        assert rep.witness.cost <= 1

    def test_star_unfixable_at_zero_budget(self, k13):
        inst = uniform_instance(WEDCE, k13, r=3, k=0, ops={VDEL, EDEL})
        rep = solve_wedce_bst(inst)
        assert not rep.answer and rep.witness is None

    def test_satisfied_instance_is_one_node(self, c5):
        inst = uniform_instance(WEDCE, c5, r=4, k=2, ops={VDEL, EDEL})
        rep = solve_wedce_bst(inst)
        assert rep.answer and rep.witness.steps == ()
        assert rep.nodes_visited == 1

    def test_vdel_only_bound(self, k13):
        inst = uniform_instance(WEDCE, k13, r=3, k=2, ops={VDEL})
        rep = solve_wedce_bst(inst)
        assert rep.tree_bound == tr(3 + 3, 2)
        assert rep.answer

    def test_wrong_kind_or_ops(self, c5):
        with pytest.raises(ValueError):
            solve_wedce_bst(uniform_instance(WERE, c5, r=2, k=1, ops={VDEL},
                                             lam=0))
        g = WeightedGraph({0: 1, 1: 1}, {(0, 1): 1})
        bad = ProblemInstance(WDCE, g, ConstraintSet(r=2, delta_v={0: {1},
                                                                  1: {1}}),
                              {VDEL, EADD}, 1)
        with pytest.raises(ValueError):
            solve_wedce_bst(bad)

    def test_weighted_edges_force_full_reductions(self):
        # single edge of weight 2 whose delta pins an impossible sum: the
        # only repairs are whole-element removals costing 2
        g = WeightedGraph({0: 1, 1: 1}, {(0, 1): 2})
        cs = ConstraintSet(r=4, delta_e={(0, 1): {0}})
        inst = ProblemInstance(WEDCE, g, cs, {EDEL}, 1)
        assert not solve_wedce_bst(inst).answer
        rep = solve_wedce_bst(inst.replace(k=2))
        assert rep.answer and rep.witness.steps == (("edel", 0, 1),)
        assert rep.witness.cost == 2


class TestWdceBst:
    def test_star_needs_two_leaf_deletions(self, k13):
        # leaves sit at 1, the centre at 3 against delta={1}; cutting edges
        # or the centre strands a leaf at 0
        inst = uniform_instance(WDCE, k13, r=1, k=2, ops={VDEL, EDEL})
        rep = solve_wdce_bst(inst)
        assert rep.answer and rep.witness.steps == (("vdel", 0), ("vdel", 1))
        assert rep.nodes_visited <= rep.tree_bound == tr(2 * 1 + 3, 2)
        rep = solve_wdce_bst(inst.replace(ops={VDEL}, k=1))
        assert not rep.answer
        assert rep.nodes_visited <= rep.tree_bound == tr(1 + 2, 1)

    def test_underweight_vertex_forced_out(self, c5):
        g = c5.add_vertex(5)
        cs = ConstraintSet(r=2, delta_v={v: {2} for v in range(6)})
        inst = ProblemInstance(WDCE, g, cs, {VDEL, EDEL}, 1)
        rep = solve_wdce_bst(inst)
        assert rep.answer and rep.witness.steps == (("vdel", 5),)
        assert rep.nodes_visited == 1
        assert not solve_wdce_bst(inst.replace(ops={EDEL})).answer

    def test_roadmap_case_answers_no_within_bound(self):
        # the oracle was killed after 300 s on this instance
        inst = uniform_instance(WDCE, random_graph(20, .3, seed=1), r=2, k=4,
                                ops={VDEL, EDEL})
        rep = solve(inst)
        assert not rep.answer
        assert rep.tree_bound == tr(7, 4)
        assert rep.nodes_visited <= rep.tree_bound

    def test_wrong_kind(self, c5):
        with pytest.raises(ValueError):
            solve_wdce_bst(uniform_instance(WERE, c5, r=2, k=1, ops={VDEL}, lam=0))

    def test_search_deeper_than_the_recursion_limit(self):
        # every edge of a 1,100-vertex path must go, one node per edit on
        # the path to the hit: deeper than Python's default recursion limit
        n = 1100
        g = WeightedGraph({v: 1 for v in range(n)},
                          {(v, v + 1): 1 for v in range(n - 1)})
        inst = uniform_instance(WDCE, g, r=0, k=n - 1, ops={EDEL})
        rep = solve(inst)
        assert rep.answer and rep.witness.cost == n - 1
        assert rep.nodes_visited == n
        assert check_constraints(inst, apply_edit_script(g, rep.witness))


class TestWereBst:
    def test_c5_is_already_edge_regular(self, c5):
        inst = uniform_instance(WERE, c5, r=2, k=0, ops={VDEL, EDEL}, lam=0)
        rep = solve_were_bst(inst)
        assert rep.answer and rep.nodes_visited == 1

    def test_chorded_c5_matches_oracle(self, c5):
        chorded = c5.add_edge(0, 2, 1)
        for k in (0, 1):
            inst = uniform_instance(WERE, chorded, r=2, k=k,
                                    ops={VDEL, EDEL}, lam=0)
            rep = solve_were_bst(inst)
            assert rep.answer == brute_force_solve(inst).answer
            assert rep.nodes_visited <= tr(3 * 2 + 6, k)

    def test_underweight_vertex_forced_out(self, c5):
        g = c5.add_vertex(5)
        cs = ConstraintSet(r=2, lam=0,
                           delta_v={v: {2} for v in range(5)} | {5: {2}},
                           nu_default={0})
        inst = ProblemInstance(WERE, g, cs, {VDEL, EDEL}, 1)
        rep = solve_were_bst(inst)
        assert rep.answer and rep.witness.steps == (("vdel", 5),)
        assert rep.nodes_visited == 1  # resolved by the pre-rule, no branching

    def test_forced_deletion_can_exhaust_the_budget(self, c5):
        g = c5.add_vertex(5).set_vertex_weight(5, 3)
        cs = ConstraintSet(r=2, lam=0,
                           delta_v={v: {2} for v in range(5)} | {5: {2}},
                           nu_default={0})
        inst = ProblemInstance(WERE, g, cs, {VDEL, EDEL}, 1)
        assert not solve_were_bst(inst).answer

    def test_wrong_kind(self, c5):
        with pytest.raises(ValueError):
            solve_were_bst(uniform_instance(WEDCE, c5, r=2, k=1, ops={VDEL}))


class TestWsre:
    def test_c5_strongly_regular(self, c5):
        inst = uniform_instance(WSRE, c5, r=2, k=0, ops={VDEL, EDEL},
                                lam=0, mu=1)
        rep = solve_wsre(inst)
        assert rep.answer and rep.witness.steps == ()

    def test_petersen_strongly_regular(self, pete):
        inst = uniform_instance(WSRE, pete, r=3, k=0, ops={VDEL, EDEL},
                                lam=0, mu=1)
        assert solve_wsre(inst).answer

    def test_dented_petersen_matches_oracle(self, pete):
        g = pete.delete_vertex(9)
        inst = uniform_instance(WSRE, g, r=3, k=2, ops={VDEL, EDEL},
                                lam=0, mu=1)
        assert solve_wsre(inst).answer == brute_force_solve(inst).answer

    def test_witness_after_region_rewrites(self):
        # pendant 6 must go; kernelize would shrink the clean path 1..5
        # behind the violating vertex 0, but the tree edits the input itself
        g = WeightedGraph({v: 1 for v in range(7)},
                          {(i, i + 1): 1 for i in range(5)} | {(0, 6): 1})
        xi = {}
        for u in range(7):
            for v in range(u + 1, 7):
                if not g.has_edge(u, v):
                    near = abs(u - v) == 2 or (u, v) == (1, 6)
                    xi[(u, v)] = {1} if near else {0}
        cs = ConstraintSet(r=2, lam=0, mu=1,
                           delta_v={0: {1}, 1: {2}, 2: {2}, 3: {2}, 4: {2},
                                    5: {1}, 6: {0}},
                           nu_default={0}, xi=xi)
        inst = ProblemInstance(WSRE, g, cs, {VDEL}, 1)
        _, trace = kernelize(inst)
        assert any(s.rule == "rr6" for s in trace.steps)
        rep = solve_wsre(inst)
        assert rep.answer and rep.witness.steps == (("vdel", 6),)
        assert check_constraints(inst, apply_edit_script(g, rep.witness))
        assert brute_force_solve(inst).answer

    def test_two_petersens_answer_no(self, pete):
        # two disjoint Petersen copies with xi pinned wrong: nothing is
        # clean, nothing reduces, and 20 vertices exceed the oracle
        verts = {v: 1 for v in range(20)}
        edges = {}
        for (a, b) in pete.edges():
            edges[(a, b)] = 1
            edges[(a + 10, b + 10)] = 1
        g = WeightedGraph(verts, edges)
        inst = uniform_instance(WSRE, g, r=3, k=1, ops={VDEL, EDEL},
                                lam=0, mu=0)
        rep = solve_wsre(inst)
        assert not rep.answer
        assert rep.tree_bound == tr(15, 1)
        assert rep.nodes_visited <= rep.tree_bound

    def test_edge_deletion_only(self, c5):
        for k in (0, 1, 2):
            for g in (c5, c5.add_edge(0, 2)):
                inst = uniform_instance(WSRE, g, r=2, k=k, ops={EDEL},
                                        lam=0, mu=1)
                rep = solve(inst)
                assert rep.tree_bound == tr(12, k)
                assert rep.answer == brute_force_solve(inst).answer

    def test_roadmap_case_answers_no(self):
        # kernelize left n=14 here, so solve used to raise
        inst = uniform_instance(WSRE, random_graph(14, .25, seed=5), r=3, k=2,
                                ops={VDEL, EDEL}, lam=0, mu=1)
        rep = solve(inst)
        assert not rep.answer
        assert rep.nodes_visited <= rep.tree_bound == tr(15, 2)


class TestDispatcher:
    def test_bst_kinds_report_bounds(self, k13, c5):
        rep = solve(uniform_instance(WEDCE, k13, r=3, k=1, ops={VDEL, EDEL}))
        assert rep.tree_bound == tr(11, 1)
        rep = solve(uniform_instance(WERE, c5, r=2, k=1, ops={VDEL}, lam=0))
        assert rep.tree_bound == tr(5, 1)

    def test_wdce_reports_bound(self, c5):
        inst = uniform_instance(WDCE, c5, r=2, k=1, ops={VDEL, EDEL})
        rep = solve(inst)
        assert rep.answer == brute_force_solve(inst).answer
        assert rep.answer and rep.nodes_visited == 1
        assert rep.tree_bound == tr(7, 1)

    def test_eadd_falls_back_to_oracle(self):
        g = WeightedGraph({0: 1, 1: 1}, {})
        inst = uniform_instance(WDCE, g, r=1, k=1, ops={EADD})
        rep = solve(inst)
        assert rep.answer and rep.witness.steps == (("eadd", 0, 1),)
        assert rep.tree_bound is None
        assert rep == brute_force_solve(inst) and rep.nodes_visited == 0

    def test_wide_lists_report_bound(self, c5):
        cs = ConstraintSet(r=3, lam=1, mu=1,
                           delta_v={v: {2, 3} for v in range(5)})
        inst = ProblemInstance(WSRE, c5, cs, {VDEL}, 1)
        rep = solve(inst)
        assert rep.tree_bound == tr(6, 1)
        assert rep.nodes_visited <= rep.tree_bound
        assert rep.answer == brute_force_solve(inst).answer

    def test_solve_does_not_kernelize(self, c5, monkeypatch):
        # every deletion-only kind runs its search tree on the input as given
        def broken(_inst):
            raise ValueError("kernelize failed")

        monkeypatch.setattr(kernelize_module, "kernelize", broken)
        monkeypatch.setattr(search_tree, "kernelize", broken, raising=False)
        for kind in (WDCE, WEDCE, WERE, WSRE):
            inst = uniform_instance(kind, c5.add_edge(0, 2), r=2, k=1,
                                    ops={VDEL, EDEL}, lam=0, mu=1)
            rep = solve(inst)
            assert rep.tree_bound is not None
            assert rep.answer == brute_force_solve(inst).answer

    def test_agreement_sweep(self):
        rng = random.Random(99)
        for _ in range(120):
            g = random_graph(rng.randint(2, 5), rng.choice([0.3, 0.5, 0.8]),
                             seed=rng.randrange(10 ** 6))
            kind = rng.choice([WEDCE, WERE])
            ops = rng.choice([{VDEL}, {VDEL, EDEL}])
            r = rng.randint(1, 3)
            inst = uniform_instance(kind, g, r=r, k=rng.randint(0, 3),
                                    ops=ops, lam=rng.randint(0, r))
            rep = solve(inst)
            assert rep.answer == brute_force_solve(inst).answer
            assert rep.nodes_visited <= rep.tree_bound
            if rep.answer:
                edited = apply_edit_script(inst.graph, rep.witness)
                assert check_constraints(inst, edited)
                assert rep.witness.cost <= inst.k

    def test_weighted_agreement_sweep(self):
        for inst in _weighted_sweep():
            rep = solve(inst)
            assert rep.answer == brute_force_solve(inst).answer
            assert rep.nodes_visited <= rep.tree_bound
            if rep.answer:
                edited = apply_edit_script(inst.graph, rep.witness)
                assert check_constraints(inst, edited)
                assert rep.witness.cost <= inst.k
                assert {step[0] for step in rep.witness.steps} <= inst.ops


def _weighted_sweep():
    """400 seeded instances on weighted graphs with lists of one to four
    arbitrary values, over every kind and deletion ops set."""
    rng = random.Random(2015)
    for _ in range(400):
        g = random_graph(rng.randint(3, 7), rng.choice([0.4, 0.6]),
                         seed=rng.randrange(10 ** 6))
        g = WeightedGraph({v: rng.randint(1, 3) for v in g.vertices()},
                          {e: rng.randint(1, 4) for e in g.edges()})
        kind = rng.choice([WDCE, WEDCE, WERE, WSRE])
        r = rng.randint(2, 8)

        def some(hi=r):
            return set(rng.sample(range(hi + 1), rng.randint(1, min(4, hi + 1))))

        if kind == WEDCE:
            cs = ConstraintSet(r=r, delta_e={e: some() for e in g.edges()})
        elif kind == WSRE:
            lam, mu = rng.randint(0, min(r, 2)), rng.randint(0, min(r, 3))
            cs = ConstraintSet(r=r, lam=lam, mu=mu, nu_default=some(lam),
                               xi_default=some(mu),
                               delta_v={v: some() for v in g.vertices()})
        else:
            lam = rng.randint(0, min(r, 2)) if kind == WERE else None
            cs = ConstraintSet(r=r, lam=lam, delta_v={v: some() for v in g.vertices()})
        ops = rng.choice([{VDEL}, {EDEL}, {VDEL, EDEL}])
        yield ProblemInstance(kind, g, cs, ops, rng.randint(0, 5))


def _pinned_instances():
    """Seeded WEDCE and WERE instances over every deletion ops set, with edge
    weights up to 3 and lists of two to four values, so that branches delete
    heavy edges whole and WERE deletes doomed vertices."""
    rng = random.Random(8)
    for kind in (WEDCE, WERE):
        for ops in ({VDEL}, {EDEL}, {VDEL, EDEL}):
            for _ in range(6):
                g = random_graph(rng.randint(5, 7), 0.5, seed=rng.randrange(10 ** 6))
                g = WeightedGraph({v: rng.choice((1, 1, 2)) for v in g.vertices()},
                                  {e: rng.choice((1, 2, 2, 3)) for e in g.edges()})
                r = 8 if kind == WEDCE else 5

                def some():
                    return set(rng.sample(range(r + 1), rng.randint(2, 4)))

                if kind == WEDCE:
                    cs = ConstraintSet(r=r, delta_e={e: some() for e in g.edges()})
                else:
                    cs = ConstraintSet(r=r, lam=2, nu_default={0, 1},
                                       delta_v={v: some() for v in g.vertices()})
                yield ProblemInstance(kind, g, cs, ops, rng.randint(1, 4))


class TestPinnedNodeCounts:
    # Recorded when weight-cutting branches became whole edge deletions
    # (each count at or below the earlier one-unit reductions', answers and
    # witnesses unchanged); the branching order is fixed, so any change here
    # is a change in which children are tried or in how nodes are counted.
    NODES = [18, 4, 5, 5, 3, 5, 1, 9, 1, 2, 4, 4, 3, 28, 16, 87, 2, 5,
             7, 3, 27, 4, 3, 2, 4, 1, 3, 3, 6, 7, 15, 3, 11, 5, 3, 7]
    ANSWERS = "NNNYNYNNNNNNYYNNNYNNNNYYYNYNNNNNNNYN"

    WITNESSES = {
        3: (("vdel", 0), ("vdel", 1), ("vdel", 3), ("vdel", 5)),
        5: (("vdel", 0), ("vdel", 1)),
        12: (("vdel", 0), ("vdel", 1)),
        13: (("vdel", 2), ("vdel", 4)),
        17: (("vdel", 0), ("vdel", 1), ("vdel", 3)),
        22: (("vdel", 0),),
        23: (("vdel", 0), ("vdel", 4)),
        24: (("edel", 0, 1), ("edel", 3, 4)),
        26: (("edel", 1, 2),),
        34: (("vdel", 2), ("vdel", 4)),
    }

    def test_exact_nodes_visited(self):
        reps = [solve(inst) for inst in _pinned_instances()]
        assert [rep.nodes_visited for rep in reps] == self.NODES
        assert "".join("Y" if rep.answer else "N" for rep in reps) == self.ANSWERS
        assert {i: rep.witness.steps for i, rep in enumerate(reps)
                if rep.answer} == self.WITNESSES


def _planted(kind, ops, n, k, budget, seed):
    """A sparse gnp graph G0 plus k unit-weight damage elements: extra edges
    (when edge deletion is allowed) or extra vertices joined to one to three
    vertices of G0.  G0's elements keep the lists of ``exact_instance(G0)``,
    the damage its own measures in the damaged graph, so deleting the damage
    is a YES at budget k ("yes"); budget k-1 ("short") is mostly NO."""
    rng = random.Random(seed)
    g0 = random_graph(n, rng.uniform(2.5, 4.5) / (n - 1), seed=rng.randrange(2 ** 31))
    g = g0
    for _ in range(k):
        if EDEL in ops and rng.random() < 0.5:
            while True:
                u, v = sorted(rng.sample(range(n), 2))
                if not g.has_edge(u, v):
                    g = g.add_edge(u, v)
                    break
        else:
            x = g.n
            g = g.add_vertex(x)
            for u in rng.sample(range(n), rng.randint(1, 3)):
                g = g.add_edge(u, x)
    old = exact_instance(kind, g0, 0, ops).constraints
    new = exact_instance(kind, g, 0, ops).constraints
    if kind == WEDCE:
        cs = ConstraintSet(r=max(old.r, new.r), delta_e={**new.delta_e, **old.delta_e})
    elif kind == WDCE:
        cs = ConstraintSet(r=max(old.r, new.r), delta_v={**new.delta_v, **old.delta_v})
    else:
        cs = ConstraintSet(r=max(old.r, new.r), lam=max(old.lam, new.lam),
                           delta_v={**new.delta_v, **old.delta_v},
                           nu={**new.nu, **old.nu}, nu_default={0})
    return ProblemInstance(kind, g, cs, ops, k if budget == "yes" else k - 1)


# (kind, ops, n, k, budget, seed), at the sizes the benchmark runs
PLANTED = [
    (WEDCE, {VDEL, EDEL}, 30, 3, "yes", 2),
    (WEDCE, {VDEL, EDEL}, 60, 3, "short", 2),
    (WEDCE, {VDEL, EDEL}, 120, 3, "yes", 1),
    (WEDCE, {VDEL}, 60, 3, "yes", 0),
    (WEDCE, {VDEL}, 120, 3, "short", 0),
    (WERE, {VDEL, EDEL}, 60, 3, "yes", 2),
    (WERE, {VDEL, EDEL}, 120, 3, "short", 1),
    (WERE, {VDEL}, 30, 3, "short", 2),
    (WERE, {VDEL}, 120, 3, "yes", 0),
    (WDCE, {VDEL, EDEL}, 30, 3, "yes", 1),
    (WDCE, {VDEL, EDEL}, 60, 3, "short", 1),
    (WDCE, {VDEL, EDEL}, 120, 3, "yes", 2),
    (WDCE, {VDEL}, 120, 3, "short", 0),
]


class TestPinnedPlanted:
    # Recorded before the search ran on one in-place working graph: answers,
    # node counts and canonical witnesses at benchmark sizes must not move.
    EXPECTED = [
        (464, (("vdel", 21), ("vdel", 30), ("edel", 11, 26))),
        (319, None),
        (483, (("vdel", 48), ("vdel", 120), ("edel", 63, 97))),
        (139, (("vdel", 60), ("vdel", 61), ("vdel", 62))),
        (82, None),
        (77, (("vdel", 60), ("edel", 23, 53), ("edel", 42, 51))),
        (42, None),
        (16, None),
        (21, (("vdel", 120), ("vdel", 121), ("vdel", 122))),
        # WDCE, recorded when its search tree was added
        (24, (("vdel", 15), ("vdel", 30), ("edel", 12, 20))),
        (13, None),
        (41, (("vdel", 120), ("edel", 46, 106), ("edel", 85, 103))),
        (13, None),
    ]

    def test_exact_nodes_and_witnesses(self):
        got = []
        for spec in PLANTED:
            inst = _planted(*spec)
            rep = solve(inst)
            assert rep.answer == (rep.witness is not None)
            if rep.answer:
                assert check_constraints(inst, apply_edit_script(inst.graph, rep.witness))
            got.append((rep.nodes_visited, rep.witness and rep.witness.steps))
        assert got == self.EXPECTED

    def test_nodes_build_no_graphs(self, monkeypatch):
        # nodes edit one working graph in place, and the witness is priced
        # on copies of the input's maps
        inst = _planted(*PLANTED[2])
        builds = 0
        init = WeightedGraph.__init__

        def counting(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(WeightedGraph, "__init__", counting)
        rep = solve(inst)
        assert rep.answer and rep.nodes_visited > 400
        assert builds == 0


def _without_leaf_rule(monkeypatch):
    for cls in (search_tree._Wedce, search_tree._Wdce, search_tree._Were):
        monkeypatch.setattr(cls, "stranded", lambda self, reach: False)


class TestLeafRule:
    # A leaf whose deletion spends the budget while some violation lies
    # beyond the deletion's reach is counted and rejected without an edit.
    # The rule may change only the edits made: never an answer, a node
    # count, a bound or a witness.

    def test_rule_changes_no_report(self, monkeypatch):
        insts = [*_pinned_instances(), *(_planted(*spec) for spec in PLANTED),
                 *_weighted_sweep()]
        with_rule = [solve(inst) for inst in insts]
        _without_leaf_rule(monkeypatch)
        assert [solve(inst) for inst in insts] == with_rule

    def test_most_leaves_make_no_edit(self, monkeypatch):
        edits = 0

        def counting(delete):
            def wrapped(g, ref):
                nonlocal edits
                edits += 1
                delete(g, ref)
            return wrapped

        cls = search_tree._WorkGraph
        monkeypatch.setattr(cls, "delete_vertex", counting(cls.delete_vertex))
        monkeypatch.setattr(cls, "delete_edge", counting(cls.delete_edge))
        inst = _planted(*PLANTED[0])
        rep = solve(inst)
        assert rep.nodes_visited == 464
        assert 2 * edits < rep.nodes_visited
        edits = 0
        _without_leaf_rule(monkeypatch)
        assert solve(inst) == rep and edits >= rep.nodes_visited - 1


def _full_scan(inst, g):
    """The strategy's view of ``g`` from scratch: its violation sets by
    attribute name, the least doomed vertex (vertex kinds only), and the
    first violation in sorted order, as the search defines it."""
    cs = inst.constraints
    wd = {v: weighted_degree(g, v) for v in g.vertices()}
    if inst.kind == WEDCE:
        off = [(u, v) for (u, v) in g.edges() if wd[u] + wd[v] not in cs.delta_of_edge(u, v)]
        return {"off": set(off)}, None, next(iter(off), None)
    low = [v for v in g.vertices() if wd[v] < min(cs.delta_of_vertex(v))]
    off = [v for v in g.vertices() if wd[v] not in cs.delta_of_vertex(v)]
    sets = {"low": set(low), "off": set(off)}
    if inst.kind in (WERE, WSRE):
        sets["bad_pairs"] = {(a, b) for (a, b) in g.edges()
                             if common_neighbor_count(g, a, b) not in cs.nu_of(a, b)}
    if inst.kind == WSRE:
        sets["bad_pairs"] |= {(a, b) for (a, b) in g.non_adjacent_pairs()
                              if common_neighbor_count(g, a, b) not in cs.xi_of(a, b)}
    bad = [(v,) for v in off] + sorted(sets.get("bad_pairs", ()))
    return sets, next(iter(low), None), next(iter(bad), None)


def _weighted_deletions():
    """Seeded weighted instances of every kind under vdel and edel, with
    edge weights up to 3, stored nu and xi lists and narrowed nu/xi
    defaults."""
    return [weighted_instance(kind, seed).replace(ops={VDEL, EDEL})
            for kind in (WDCE, WEDCE, WERE, WSRE) for seed in range(12)]


class TestWorkGraphUndo:
    def _check(self, inst, work, strategy, g):
        vs = g.vertices()
        assert work.vw == {v: g.vertex_weight(v) for v in vs}
        # each edge at both ends, at its weight, and nothing else
        assert work.nbr == {v: {y: g.edge_weight(v, y) for y in g.neighbors(v)}
                            for v in vs}
        assert work.wd == {v: weighted_degree(g, v) for v in vs}
        sets, doomed, bad = _full_scan(inst, g)
        assert {name: val for name, val in vars(strategy).items()
                if isinstance(val, set)} == sets
        assert (min(strategy.doomed(), default=None), strategy.violation()) == (doomed, bad)

    def test_seeded_walk_matches_rebuilt_graph(self):
        # random vertex and edge deletions, each after a mark, undone one to
        # three marks at a time, against the same deletions made on
        # immutable graphs
        rng = random.Random(31)
        strategies = {WDCE: search_tree._Wdce, WEDCE: search_tree._Wedce,
                      WERE: search_tree._Were, WSRE: search_tree._Wsre}
        for inst in [*_pinned_instances(), *_weighted_deletions()]:
            strategy = strategies[inst.kind](inst.constraints)
            work = search_tree._WorkGraph(inst.graph, strategy.update)
            history, marks = [inst.graph], []
            self._check(inst, work, strategy, inst.graph)
            for _ in range(60):
                g = history[-1]
                if not g.n or (marks and rng.random() < 0.4):
                    back = rng.randint(1, min(3, len(marks)))
                    work.undo_to(marks[-back])
                    del marks[-back:], history[-back:]
                else:
                    marks.append(len(work.trail))
                    if not g.m or rng.random() < 0.3:
                        v = rng.choice(g.vertices())
                        work.delete_vertex(v)
                        history.append(g.delete_vertex(v))
                    else:
                        e = rng.choice(g.edges())
                        work.delete_edge(e)
                        history.append(g.delete_edge(*e))
                self._check(inst, work, strategy, history[-1])
            while marks:
                work.undo_to(marks.pop())
                history.pop()
                self._check(inst, work, strategy, history[-1])

    def test_search_undoes_in_stack_order(self, monkeypatch):
        # a node marks the trail before its children and undoes to the mark
        # after each one, so every undo_to(mark) must bring back the graph
        # and violation sets as they were when the trail last had that
        # length: just before the child's deletion
        cls = search_tree._WorkGraph
        undo_to = cls.undo_to
        at = {}
        undos = 0

        def snapshot(g):
            sets = {name: set(val) for name, val in vars(g._update.__self__).items()
                    if isinstance(val, set)}
            return (dict(g.vw), {v: dict(ns) for v, ns in g.nbr.items()},
                    dict(g.wd), sets)

        def recording(delete):
            def wrapped(g, ref):
                at[len(g.trail)] = snapshot(g)
                delete(g, ref)
            return wrapped

        def checked_undo_to(g, mark):
            nonlocal undos
            undo_to(g, mark)
            assert snapshot(g) == at[mark]
            undos += 1

        monkeypatch.setattr(cls, "delete_vertex", recording(cls.delete_vertex))
        monkeypatch.setattr(cls, "delete_edge", recording(cls.delete_edge))
        monkeypatch.setattr(cls, "undo_to", checked_undo_to)
        for inst in [*_pinned_instances(), *_weighted_deletions()]:
            solve(inst)
        assert undos > 200


@pytest.mark.parametrize("kind", [WDCE, WEDCE, WERE, WSRE])
def test_solve_leaves_the_input_graph_unchanged(kind):
    # the working graph copies the input's maps, and a solve that answers
    # YES stops with its root's deletions still applied to that copy
    def maps(g):
        return (dict(g.vertex_weights()), dict(g.edge_weights()),
                {v: set(ns) for v, ns in g.adjacency().items()})

    answers = set()
    for seed in range(12):
        for ops in ({VDEL}, {EDEL}, {VDEL, EDEL}):
            for k in (0, 2, 8):
                inst = weighted_instance(kind, seed).replace(ops=ops, k=k)
                before = maps(inst.graph)
                answers.add(solve(inst).answer)
                assert maps(inst.graph) == before
    assert answers == {True, False}
