"""Reduction-rule behavior pinned on small hand-checked fixtures.

The randomized answer-preservation sweeps live in test_acceptance; here each
rule is exercised on instances small enough to verify the rewritten graph and
constraint patches by hand.
"""

import random
from importlib import import_module

import pytest

from dcedit.graphs import WeightedGraph, complete, cycle, line_graph, random_graph
from dcedit.kernelize import (
    RULES_BY_NAME,
    find_clean_regions,
    kernel_bound,
    kernelize,
    replay_trace,
)
from dcedit.oracle import brute_force_solve
from dcedit.search_tree import solve
from dcedit.problems import (
    ConstraintSet,
    EDEL,
    ProblemInstance,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
)

from conftest import exact_instance, star_graph, uniform_instance

(rr1_high_degree, rr2_isolated_clean, rr3_deep_clean_wedce,
 rr4_contract_clean_wedce_edel, rr5_shrink_were, rr6_shrink_wsre) = (
    RULES_BY_NAME[f"rr{i}"] for i in range(1, 7))


def wedce(g, delta_e, r, k, ops=frozenset({VDEL, EDEL})):
    return ProblemInstance(WEDCE, g, ConstraintSet(r=r, delta_e=delta_e),
                           ops, k)


def unit_path(n):
    return WeightedGraph({v: 1 for v in range(n)},
                         {(i, i + 1): 1 for i in range(n - 1)})


class TestCleanRegions:
    def test_fully_clean_path(self):
        g = unit_path(3)
        inst = wedce(g, {(0, 1): {3}, (1, 2): {3}}, r=3, k=1)
        (region,) = find_clean_regions(inst)
        assert region.vertices == frozenset({0, 1, 2})
        assert region.boundary == frozenset()
        assert region.layers == ()

    def test_unclean_edge_shrinks_the_region(self):
        # only edge 01 is clean; vertex 1 touches the unclean 12, so the
        # region stops at vertex 0
        g = unit_path(4)
        inst = wedce(g, {(0, 1): {3}, (1, 2): {0}, (2, 3): {0}}, r=4, k=1)
        (region,) = find_clean_regions(inst)
        assert region.vertices == frozenset({0})
        assert region.boundary == frozenset({1})
        assert region.layers == (frozenset({0}),)

    def test_were_c5_one_bad_delta(self, c5):
        cs = ConstraintSet(r=3, lam=0,
                           delta_v={v: {2} for v in range(1, 5)} | {0: {3}},
                           nu_default={0})
        inst = ProblemInstance(WERE, c5, cs, {VDEL, EDEL}, 1)
        (region,) = find_clean_regions(inst)
        assert region.vertices == frozenset({1, 2, 3, 4})
        assert region.boundary == frozenset({0})
        assert region.layers == (frozenset({1, 4}), frozenset({2, 3}))
        assert region.layer(3) == frozenset()
        with pytest.raises(IndexError):
            region.layer(0)

    def test_wsre_xi_mismatch_excludes(self, c5):
        # same C5 but under WSRE every non-adjacent pair must match xi; the
        # true counts are 1, so xi={0} leaves nothing clean
        cs = ConstraintSet(r=3, lam=0, mu=1,
                           delta_v={v: {2} for v in range(5)},
                           nu_default={0}, xi_default={0})
        inst = ProblemInstance(WSRE, c5, cs, {VDEL, EDEL}, 1)
        assert find_clean_regions(inst) == []
        good = ProblemInstance(WSRE, c5, cs.replace(xi_default=frozenset({1})),
                               {VDEL, EDEL}, 1)
        (region,) = find_clean_regions(good)
        assert region.vertices == frozenset(range(5))

    def test_kind_and_star_guards(self, c5):
        inst = uniform_instance(WDCE, c5, r=2, k=1, ops={VDEL})
        with pytest.raises(ValueError):
            find_clean_regions(inst)
        wide = wedce(unit_path(2), {(0, 1): {1, 2}}, r=2, k=1)
        with pytest.raises(ValueError, match="singleton"):
            find_clean_regions(wide)

    def test_regions_are_disjoint_and_maximal(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng.randint(3, 7), 0.45,
                             seed=rng.randrange(10 ** 6))
            inst = uniform_instance(WERE, g, r=4, k=1, ops={VDEL},
                                    lam=rng.randint(0, 2))
            regions = find_clean_regions(inst)
            seen = set()
            for reg in regions:
                assert not (reg.vertices & seen)
                seen |= reg.vertices
            # maximality: two distinct regions are never adjacent, else they
            # would have merged into one
            for i, a in enumerate(regions):
                for b in regions[i + 1:]:
                    assert not any(g.neighbors(v) & b.vertices
                                   for v in a.vertices)


class TestRule1:
    def test_star_center_doomed(self):
        inst = uniform_instance(WEDCE, star_graph(5), r=3, k=1,
                                ops={VDEL, EDEL})
        new, step = rr1_high_degree(inst)
        assert step.rule == "rr1" and step.affected == (5,)
        assert step.k_delta == -1 and new.k == 0
        assert 5 not in new.graph.vertices()

    def test_low_degrees_untouched(self):
        inst = uniform_instance(WEDCE, complete(3), r=2, k=1,
                                ops={VDEL, EDEL})
        assert rr1_high_degree(inst) is None

    def test_heavy_center_budget_goes_negative(self):
        g = star_graph(5).set_vertex_weight(5, 3)
        inst = uniform_instance(WEDCE, g, r=3, k=1, ops={VDEL, EDEL})
        new, step = rr1_high_degree(inst)
        assert step.k_delta == -3 and new.k == -2

    def test_repairable_degree_is_spared(self):
        # d(2) = 6 > k+r, but deleting one unit-weight neighbour removes a
        # weight-3 edge, bringing the degree back to r within budget
        g = WeightedGraph({0: 1, 1: 1, 2: 1},
                          {(0, 2): 3, (1, 2): 3})
        cs = ConstraintSet(r=3, delta_e={(0, 2): {0}, (1, 2): {0}})
        inst = ProblemInstance(WEDCE, g, cs, {VDEL, EDEL}, 2)
        assert rr1_high_degree(inst) is None

    def test_guards(self, c5):
        with pytest.raises(ValueError):
            rr1_high_degree(uniform_instance(WDCE, c5, r=2, k=1, ops={VDEL}))
        with pytest.raises(ValueError):
            rr1_high_degree(
                uniform_instance(WEDCE, c5, r=2, k=1, ops={EDEL}))


class TestRule2:
    def test_disjoint_clean_triangle_removed(self):
        g = WeightedGraph({v: 1 for v in range(5)},
                          {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1})
        inst = wedce(g, {(0, 1): {4}, (0, 2): {4}, (1, 2): {4}, (3, 4): {0}},
                     r=4, k=2)
        new, step = rr2_isolated_clean(inst)
        assert step.rule == "rr2" and step.affected == (0, 1, 2)
        assert step.k_delta == 0 and new.k == 2
        assert new.graph.vertices() == (3, 4)

    def test_fully_clean_graph_vanishes(self):
        inst = wedce(unit_path(3), {(0, 1): {3}, (1, 2): {3}}, r=3, k=0)
        new, _ = rr2_isolated_clean(inst)
        assert new.graph.vertices() == ()

    def test_not_applicable_without_clean_regions(self, c5):
        inst = uniform_instance(WEDCE, c5, r=1, k=1, ops={VDEL, EDEL})
        assert rr2_isolated_clean(inst) is None


class TestRule3:
    def test_deep_path_truncated(self):
        g = unit_path(6)
        inst = wedce(g, {(0, 1): {0}, (1, 2): {4}, (2, 3): {4}, (3, 4): {4},
                         (4, 5): {3}}, r=4, k=0)
        new, step = rr3_deep_clean_wedce(inst)
        assert step.rule == "rr3" and step.affected == (3, 4, 5)
        assert new.graph.vertices() == (0, 1, 2)
        # the frontier edge is re-pinned to its post-deletion degree sum
        assert new.constraints.delta_e[(1, 2)] == frozenset({3})
        assert new.constraints.delta_e[(0, 1)] == frozenset({0})

    def test_shallow_region_not_applicable(self):
        g = unit_path(3)
        inst = wedce(g, {(0, 1): {0}, (1, 2): {3}}, r=3, k=1)
        assert rr3_deep_clean_wedce(inst) is None

    def test_wrong_kind_rejected(self, c5):
        inst = uniform_instance(WERE, c5, r=2, k=1, ops={VDEL}, lam=0)
        with pytest.raises(ValueError):
            rr3_deep_clean_wedce(inst)

    def test_negative_budget_fires_nothing(self):
        # a negative budget is an immediate no: the public rules leave it
        # alone rather than ask a region for layer k+2 < 1
        g = unit_path(6)
        inst = wedce(g, {(0, 1): {0}, (1, 2): {4}, (2, 3): {4}, (3, 4): {4},
                         (4, 5): {3}}, r=4, k=-1)
        for rule in (rr1_high_degree, rr2_isolated_clean, rr3_deep_clean_wedce):
            assert rule(inst) is None


class TestRule4:
    def fixture(self):
        # clean triangle {1,2,3} hangs off 0; pendant 4 keeps 0 unclean
        g = WeightedGraph({v: 1 for v in range(5)},
                          {(1, 2): 1, (1, 3): 1, (2, 3): 1, (0, 1): 1,
                           (0, 4): 1})
        return wedce(g, {(1, 2): {5}, (1, 3): {5}, (2, 3): {4}, (0, 1): {5},
                         (0, 4): {0}}, r=7, k=2, ops=frozenset({EDEL}))

    def test_triangle_contracts_to_an_edge(self):
        inst = self.fixture()
        new, step = rr4_contract_clean_wedce_edel(inst)
        assert step.affected == (1, 2, 3, 5, 6)  # region + the fresh pair
        g2 = new.graph
        assert g2.vertices() == (0, 4, 5, 6)
        assert g2.edge_weight(5, 6) == 3           # min(k+1, 1+1+1)
        assert g2.edge_weight(0, 5) == 1           # exact boundary sum
        assert new.constraints.delta_e[(5, 6)] == frozenset({7})
        assert new.constraints.delta_e[(0, 5)] == frozenset({6})
        assert new.k == inst.k

    def test_internal_weight_clamps_at_k_plus_one(self):
        inst = self.fixture().replace(k=1)
        new, _ = rr4_contract_clean_wedce_edel(inst)
        assert new.graph.edge_weight(5, 6) == 2

    def test_contraction_reaches_a_fixpoint(self):
        inst = self.fixture()
        new, _ = rr4_contract_clean_wedce_edel(inst)
        assert rr4_contract_clean_wedce_edel(new) is None

    def test_requires_edel_only(self):
        inst = self.fixture().replace(ops=frozenset({VDEL, EDEL}))
        with pytest.raises(ValueError):
            rr4_contract_clean_wedce_edel(inst)

    def test_singleton_region_skipped(self):
        g = unit_path(4)
        inst = wedce(g, {(0, 1): {3}, (1, 2): {0}, (2, 3): {0}}, r=4, k=1,
                     ops=frozenset({EDEL}))
        assert rr4_contract_clean_wedce_edel(inst) is None

    @pytest.mark.parametrize("base, k", [("K4", k) for k in range(6)]
                             + [("C6", k) for k in range(1, 6)])
    def test_refuses_non_integer_ids(self, base, k):
        # line-graph ids are edges, so no fresh id follows the largest one
        g = line_graph(complete(4) if base == "K4" else cycle(6))
        inst = exact_instance(WEDCE, g, k, {EDEL})
        cs = inst.constraints
        e = min(cs.delta_e)
        moved = inst.replace(constraints=cs.replace(
            delta_e={**cs.delta_e, e: {min(cs.delta_e[e]) - 1}}))
        for run in (kernelize, rr4_contract_clean_wedce_edel):
            with pytest.raises(ValueError, match="rr4 .* needs integer vertex ids"):
                run(moved)


class TestRule5:
    def fixture(self, k=1):
        g = unit_path(5)
        cs = ConstraintSet(r=5, lam=0,
                           delta_v={0: {5}, 1: {2}, 2: {2}, 3: {2}, 4: {1}},
                           nu_default={0})
        return ProblemInstance(WERE, g, cs, {VDEL, EDEL}, k)

    def test_deep_layers_absorbed(self):
        new, step = rr5_shrink_were(self.fixture())
        assert step.rule == "rr5" and step.affected == (1, 2, 3, 4)
        g2 = new.graph
        assert g2.vertices() == (0, 1)
        assert g2.vertex_weight(1) == 2  # min(k+1, 1 + three absorbed units)
        assert new.constraints.delta_v[1] == frozenset({1})
        assert new.constraints.nu[(0, 1)] == frozenset({0})

    def test_weight_clamp_loosens_with_budget(self):
        new, _ = rr5_shrink_were(self.fixture(k=5))
        assert new.graph.vertex_weight(1) == 4  # 1 + 3, unclamped

    def test_idempotent_on_its_own_output(self):
        new, _ = rr5_shrink_were(self.fixture())
        assert rr5_shrink_were(new) is None

    def test_wrong_kind_rejected(self, c5):
        inst = uniform_instance(WEDCE, c5, r=4, k=1, ops={VDEL})
        with pytest.raises(ValueError):
            rr5_shrink_were(inst)


class TestRule6:
    def fixture(self):
        g = unit_path(6)
        pairs = {}
        for u in range(6):
            for v in range(u + 1, 6):
                if not g.has_edge(u, v):
                    pairs[(u, v)] = {1} if v - u == 2 else {0}
        cs = ConstraintSet(r=5, lam=0, mu=1,
                           delta_v={0: {5}} | {v: {2} for v in range(1, 5)}
                           | {5: {1}},
                           nu_default={0}, xi=pairs, xi_default={0})
        return ProblemInstance(WSRE, g, cs, {VDEL, EDEL}, 1)

    def test_two_layers_survive(self):
        inst = self.fixture()
        (region,) = find_clean_regions(inst)
        assert region.vertices == frozenset({1, 2, 3, 4, 5})
        new, step = rr6_shrink_wsre(inst)
        assert step.rule == "rr6"
        assert new.graph.vertices() == (0, 1, 2)
        assert new.graph.has_edge(1, 2)
        assert new.graph.vertex_weight(1) == 2  # min(k+1, 1 + absorbed 3)

    def test_patch_respects_adjacency_split(self):
        new, _ = rr6_shrink_wsre(self.fixture())
        cs = new.constraints
        assert cs.nu[(1, 2)] == frozenset({0})   # adjacent pair
        assert cs.xi[(0, 2)] == frozenset({1})   # non-adjacent, via vertex 1
        assert cs.delta_v[2] == frozenset({1})   # C_2 re-pinned

    def test_shallow_region_left_alone_once_stable(self):
        inst = self.fixture()
        new, _ = rr6_shrink_wsre(inst)
        assert rr6_shrink_wsre(new) is None


class TestDriver:
    def test_star_reduces_to_nothing(self):
        inst = uniform_instance(WEDCE, star_graph(5), r=3, k=1,
                                ops={VDEL, EDEL})
        red, trace = kernelize(inst)
        assert [s.rule for s in trace.steps] == ["rr1"]
        assert red.graph.vertices() == () and red.k == 0

    def test_already_reduced_gives_empty_trace(self, c5):
        inst = uniform_instance(WEDCE, c5, r=1, k=1, ops={VDEL, EDEL})
        red, trace = kernelize(inst)
        assert trace.steps == () and red == inst

    def test_idempotence(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng.randint(3, 7), 0.5,
                             seed=rng.randrange(10 ** 6))
            inst = uniform_instance(WEDCE, g, r=rng.randint(1, 3),
                                    k=rng.randint(0, 3), ops={VDEL, EDEL})
            red, _ = kernelize(inst)
            again, trace = kernelize(red)
            assert trace.steps == () and again == red

    def test_replay_reproduces_the_final_instance(self):
        inst = uniform_instance(WEDCE, star_graph(5), r=3, k=1,
                                ops={VDEL, EDEL})
        red, trace = kernelize(inst)
        assert replay_trace(inst, trace) == red

    def test_replay_rejects_foreign_trace(self, c5):
        inst = uniform_instance(WEDCE, star_graph(5), r=3, k=1,
                                ops={VDEL, EDEL})
        _, trace = kernelize(inst)
        other = uniform_instance(WEDCE, c5, r=1, k=1, ops={VDEL, EDEL})
        with pytest.raises(ValueError):
            replay_trace(other, trace)

    @staticmethod
    def three_rule_wsre():
        """A clean triangle (rule 2), a hub whose clean tail is four layers
        deep (rule 6), and a star center of degree 7 > k + r (rule 1)."""
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (5, 6), (6, 7), (7, 8)]
        edges += [(9, leaf) for leaf in range(10, 17)]
        g = WeightedGraph({v: 1 for v in range(17)}, {e: 1 for e in edges})
        inst = exact_instance(WSRE, g, 1, {VDEL, EDEL})
        cs = inst.constraints
        delta_v = dict(cs.delta_v)
        delta_v.update({3: {1}, 4: {0}, 9: {2}})
        return inst.replace(constraints=cs.replace(r=2, delta_v=delta_v))

    def test_one_star_check_per_round(self, monkeypatch):
        module = import_module("dcedit.kernelize")
        calls = {"star": 0, "regions": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        # kernelize must look both up as module globals at call time
        monkeypatch.setattr(module, "star_violation",
                            counting("star", module.star_violation))
        monkeypatch.setattr(module, "find_clean_regions",
                            counting("regions", module.find_clean_regions))
        _, trace = kernelize(self.three_rule_wsre())
        assert {"rr1", "rr2", "rr6"} <= {s.rule for s in trace.steps}
        assert 1 <= calls["regions"] <= len(trace.steps) + 1
        assert 1 <= calls["star"] <= 1 + calls["regions"]

    def test_unsupported_combinations_rejected(self, c5):
        with pytest.raises(ValueError):
            kernelize(uniform_instance(WDCE, c5, r=2, k=1, ops={VDEL}))
        with pytest.raises(ValueError):
            kernelize(uniform_instance(WERE, c5, r=2, k=1, ops={EDEL},
                                       lam=0))

    def test_rules_by_name_is_complete(self):
        assert sorted(RULES_BY_NAME) == ["rr1", "rr2", "rr3", "rr4", "rr5",
                                         "rr6"]

    # every valid (kind, nonempty ops) pair on a *-variant C5: whether each of
    # rr1..rr6 runs (+) or raises ValueError (-), and kernelize's message
    COVERAGE = (
        (WDCE, "vdel", "------", "no reduction rules cover kind WDCE"),
        (WDCE, "edel", "------", "no reduction rules cover kind WDCE"),
        (WDCE, "eadd", "------", "no reduction rules cover kind WDCE"),
        (WDCE, "vdel edel", "------", "no reduction rules cover kind WDCE"),
        (WDCE, "vdel eadd", "------", "no reduction rules cover kind WDCE"),
        (WDCE, "edel eadd", "------", "no reduction rules cover kind WDCE"),
        (WDCE, "vdel edel eadd", "------", "no reduction rules cover kind WDCE"),
        (WEDCE, "vdel", "+++---", None),
        (WEDCE, "edel", "-+++--", None),
        (WEDCE, "vdel edel", "+++---", None),
        (WERE, "vdel", "++--+-", None),
        (WERE, "edel", "-+----", "no WERE rules apply without vdel"),
        (WERE, "eadd", "-+----", "reduction rules cover ops within {vdel, edel} only"),
        (WERE, "vdel edel", "++--+-", None),
        (WERE, "vdel eadd", "-+----", "reduction rules cover ops within {vdel, edel} only"),
        (WERE, "edel eadd", "-+----", "reduction rules cover ops within {vdel, edel} only"),
        (WERE, "vdel edel eadd", "-+----",
         "reduction rules cover ops within {vdel, edel} only"),
        (WSRE, "vdel", "++---+", None),
        (WSRE, "edel", "-+----", "no WSRE rules apply without vdel"),
        (WSRE, "eadd", "-+----", "reduction rules cover ops within {vdel, edel} only"),
        (WSRE, "vdel edel", "++---+", None),
        (WSRE, "vdel eadd", "-+----", "reduction rules cover ops within {vdel, edel} only"),
        (WSRE, "edel eadd", "-+----", "reduction rules cover ops within {vdel, edel} only"),
        (WSRE, "vdel edel eadd", "-+----",
         "reduction rules cover ops within {vdel, edel} only"),
    )

    @pytest.mark.parametrize("kind, ops, runs, message", COVERAGE)
    def test_coverage_table(self, c5, kind, ops, runs, message):
        inst = uniform_instance(kind, c5, r=2, k=1, ops=ops.split(), lam=0, mu=1)
        got = ""
        for name in sorted(RULES_BY_NAME):
            try:
                RULES_BY_NAME[name](inst)
                got += "+"
            except ValueError:
                got += "-"
        assert got == runs
        if message is None:
            kernelize(inst)
        else:
            with pytest.raises(ValueError) as exc:
                kernelize(inst)
            assert str(exc.value) == message

    def test_star_message(self):
        wide = wedce(unit_path(3), {(0, 1): {1, 2}, (1, 2): {2}}, r=2, k=1)
        with pytest.raises(ValueError) as exc:
            kernelize(wide)
        assert str(exc.value) == \
            "rules need a *-variant instance: delta(0,1) is not a singleton"

    def test_answers_preserved_end_to_end(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng.randint(3, 6), 0.5,
                             seed=rng.randrange(10 ** 6))
            kind = rng.choice([WEDCE, WERE, WSRE])
            r = rng.randint(1, 3)
            inst = uniform_instance(kind, g, r=r, k=rng.randint(0, 3),
                                    ops={VDEL, EDEL}, lam=rng.randint(0, r),
                                    mu=rng.randint(0, r))
            red, _ = kernelize(inst)
            if red.k < 0:
                assert not brute_force_solve(inst).answer
            else:
                assert (brute_force_solve(inst).answer
                        == brute_force_solve(red).answer)


def _moved_list(kind, seed):
    """A seeded 6-9-vertex instance of ``kind`` with every list pinned to
    its measure, then one vertex list moved one step off it."""
    rng = random.Random(seed)
    g = random_graph(rng.randint(6, 9), rng.uniform(0.3, 0.6),
                     seed=rng.randrange(10 ** 6))
    base = exact_instance(kind, g, 0, {VDEL})
    cs = base.constraints
    v = rng.choice(g.vertices())
    (d,) = cs.delta_v[v]
    moved = d - 1 if d and rng.random() < 0.5 else d + 1
    return base.replace(constraints=cs.replace(r=max(cs.r, moved),
                                               delta_v={**cs.delta_v, v: {moved}}))


@pytest.mark.parametrize("kind, rule", [(WERE, "rr5"), (WSRE, "rr6")])
def test_clique_completion_keeps_the_answer(kind, rule):
    # rules 5 and 6 complete the kept layers to a clique and keep the xi
    # lists stored for pairs that the completion makes adjacent; a later
    # edge deletion parts such a pair again, and the kernel must still
    # answer as the input does
    fired = stale = 0
    answers = set()
    for seed in range(60):
        moved = _moved_list(kind, seed)
        for ops in ({VDEL}, {VDEL, EDEL}):
            for k in range(3):
                inst = moved.replace(ops=ops, k=k)
                kern, trace = kernelize(inst)
                if rule not in {step.rule for step in trace.steps}:
                    continue
                fired += 1
                stale += any(kern.graph.has_edge(*p) for p in kern.constraints.xi)
                answer = brute_force_solve(inst).answer
                answers.add(answer)
                assert brute_force_solve(kern).answer == answer, (seed, ops, k)
                assert solve(kern).answer == answer, (seed, ops, k)
    assert fired > 300 and answers == {True, False}
    # WERE keeps no xi lists; most WSRE kernels keep one on a clique edge
    assert stale > 150 if kind == WSRE else stale == 0


class TestKernelBound:
    def test_frozen_values(self):
        assert kernel_bound(WEDCE, {EDEL}, 2, 3) == 28
        assert kernel_bound(WERE, {VDEL, EDEL}, 1, 2) == 10
        assert kernel_bound(WSRE, {VDEL, EDEL}, 1, 1) == 7
        assert kernel_bound(WEDCE, {VDEL, EDEL}, 2, 1) == 14
        assert kernel_bound(WEDCE, {VDEL}, 1, 2) == 1 + 3 * (1 + 4)

    def test_uncovered_pairs_rejected(self):
        with pytest.raises(ValueError):
            kernel_bound(WDCE, {VDEL, EDEL}, 1, 1)
        with pytest.raises(ValueError):
            kernel_bound(WERE, {EDEL}, 1, 1)
        with pytest.raises(ValueError):
            kernel_bound(WEDCE, {EDEL}, -1, 1)
