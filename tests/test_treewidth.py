import random

import pytest

from dcedit.graphs import WeightedGraph, complete, cycle, random_graph
from dcedit.oracle import (
    enumerate_labeled_graphs,
    induced_regular_bruteforce,
    regular_subgraph_bruteforce,
)
from dcedit.treewidth import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    TreeDecomposition,
    greedy_decomposition,
    make_nice,
    solve_induced_regular,
    solve_regular_subgraph,
    solve_with_addition,
    validate_decomposition,
)

from conftest import path_graph


def single_bag(g):
    return TreeDecomposition(bags={0: frozenset(g.vertices())}, tree=())


class TestValidate:
    def test_single_bag_is_always_valid(self, pete):
        td = single_bag(pete)
        assert validate_decomposition(pete, td)
        assert td.width == 9

    def test_path_decomposition(self):
        g = path_graph(3)
        td = TreeDecomposition(bags={0: frozenset({0, 1}),
                                     1: frozenset({1, 2})},
                               tree=((0, 1),))
        assert validate_decomposition(g, td) and td.width == 1

    def test_missing_edge_coverage(self):
        g = complete(3)
        td = TreeDecomposition(bags={0: frozenset({0, 1}),
                                     1: frozenset({1, 2})},
                               tree=((0, 1),))
        assert not validate_decomposition(g, td)  # edge 02 shares no bag

    def test_missing_vertex(self):
        g = path_graph(3)
        td = TreeDecomposition(bags={0: frozenset({0, 1})}, tree=())
        assert not validate_decomposition(g, td)

    def test_disconnected_occurrence_subtree(self):
        g = WeightedGraph({0: 1, 1: 1, 2: 1}, {})
        td = TreeDecomposition(bags={0: frozenset({0, 1}),
                                     1: frozenset({2}),
                                     2: frozenset({0})},
                               tree=((0, 1), (1, 2)))
        assert not validate_decomposition(g, td)  # vertex 0 skips the middle

    def test_non_tree_shape(self):
        g = path_graph(2)
        td = TreeDecomposition(bags={0: frozenset({0, 1}),
                                     1: frozenset({0, 1})},
                               tree=())  # two components, not a tree
        assert not validate_decomposition(g, td)


class TestGreedy:
    def test_tree_width_one(self):
        g = path_graph(6)
        td = greedy_decomposition(g)
        assert validate_decomposition(g, td) and td.width == 1

    def test_cycle_width_two(self):
        for n in (3, 5, 8):
            g = cycle(n)
            td = greedy_decomposition(g)
            assert validate_decomposition(g, td) and td.width == 2

    def test_complete_width(self):
        g = complete(5)
        td = greedy_decomposition(g)
        assert validate_decomposition(g, td) and td.width == 4

    def test_petersen_width_four(self, pete):
        td = greedy_decomposition(pete)
        assert validate_decomposition(pete, td) and td.width == 4

    def test_empty_graph(self):
        g = WeightedGraph({}, {})
        td = greedy_decomposition(g)
        assert validate_decomposition(g, td) and td.width == -1

    def test_random_graphs_validate(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng.randint(1, 9), rng.random(),
                             seed=rng.randrange(10 ** 6))
            td = greedy_decomposition(g)
            assert validate_decomposition(g, td)

    def test_greedy_validates_on_every_small_graph_and_seeded_sweep(self):
        # the DP checks only a decomposition a caller hands in, so the one
        # it builds itself is checked here: every labelled graph on up to
        # 5 vertices, then 200 seeded graphs on 6-40 vertices
        rng = random.Random(41)
        graphs = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
        graphs += [random_graph(rng.randint(6, 40), rng.random(), seed=rng.randrange(10 ** 6))
                   for _ in range(200)]
        for g in graphs:
            assert validate_decomposition(g, greedy_decomposition(g)), g


class TestNice:
    def test_every_edge_claimed_once(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), 0.5,
                             seed=rng.randrange(10 ** 6))
            nd = make_nice(g, greedy_decomposition(g))
            claimed = [n.edge for n in nd.nodes if n.kind == INTRODUCE_EDGE]
            assert sorted(claimed) == sorted(g.edges())

    def test_structure_of_node_kinds(self):
        g = complete(3)
        nd = make_nice(g, greedy_decomposition(g))
        for i, node in enumerate(nd.nodes):
            assert all(c < i for c in node.children)  # bottom-up ids
            if node.kind == LEAF:
                assert node.bag == frozenset() and node.children == ()
            elif node.kind == INTRODUCE:
                (c,) = node.children
                assert node.bag == nd.nodes[c].bag | {node.vertex}
            elif node.kind == INTRODUCE_EDGE:
                (c,) = node.children
                assert node.bag == nd.nodes[c].bag
                assert set(node.edge) <= node.bag
            elif node.kind == FORGET:
                (c,) = node.children
                assert node.bag == nd.nodes[c].bag - {node.vertex}
            else:
                assert node.kind == JOIN
                a, b = node.children
                assert nd.nodes[a].bag == nd.nodes[b].bag == node.bag
        assert nd.nodes[nd.root].bag == frozenset()


class TestInducedRegular:
    def test_k4_with_pendant(self):
        g = complete(4).add_vertex(4).add_edge(3, 4, 1)
        assert solve_induced_regular(g, 3)

    def test_forests_have_no_two_regular_subgraph(self):
        g = path_graph(7)
        assert not solve_induced_regular(g, 2)

    def test_c5_contains_itself(self, c5):
        assert solve_induced_regular(c5, 2)
        assert not solve_induced_regular(c5, 3)

    def test_zero_regular(self, c5):
        assert solve_induced_regular(c5, 0)
        assert not solve_induced_regular(WeightedGraph({}, {}), 0)

    def test_guard_rejects_fast(self):
        g = path_graph(4)  # width 1
        assert not solve_induced_regular(g, 2, greedy_decomposition(g))

    def test_invalid_decomposition_rejected(self, c5):
        bad = TreeDecomposition(bags={0: frozenset({0, 1})}, tree=())
        with pytest.raises(ValueError):
            solve_induced_regular(c5, 2, bad)


class TestRegularSubgraph:
    def test_k4_two_regular(self, k4):
        assert solve_regular_subgraph(k4, 2)

    def test_single_edge_suffices(self):
        g = path_graph(5)
        assert solve_regular_subgraph(g, 1)

    def test_triangle_maxes_at_two(self):
        g = complete(3)
        assert solve_regular_subgraph(g, 2)
        assert not solve_regular_subgraph(g, 3)

    def test_subgraph_mode_is_at_least_as_permissive(self):
        # an induced r-regular subgraph is in particular an r-regular
        # subgraph, so the keep/drop mode can never answer false earlier
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng.randint(2, 7), 0.5,
                             seed=rng.randrange(10 ** 6))
            r = rng.randint(0, 3)
            if solve_induced_regular(g, r):
                assert solve_regular_subgraph(g, r)


class TestAgreementWithBruteForce:
    def test_exhaustive_small(self):
        for g in enumerate_labeled_graphs(4):
            for r in range(4):
                assert solve_induced_regular(g, r) == \
                    induced_regular_bruteforce(g, r)
                assert solve_regular_subgraph(g, r) == \
                    regular_subgraph_bruteforce(g, r)

    def test_sampled_medium(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng.randint(5, 8), rng.choice([0.3, 0.5, 0.7]),
                             seed=rng.randrange(10 ** 6))
            r = rng.randint(0, 4)
            assert solve_induced_regular(g, r) == \
                induced_regular_bruteforce(g, r)
            assert solve_regular_subgraph(g, r) == \
                regular_subgraph_bruteforce(g, r)

    def test_decomposition_independence(self, pete):
        for r in (2, 3):
            greedy = solve_regular_subgraph(pete, r, greedy_decomposition(pete))
            fat = solve_regular_subgraph(pete, r, single_bag(pete))
            assert greedy == fat == solve_regular_subgraph(pete, r)


class TestWithAddition:
    def test_enough_vertices(self):
        assert solve_with_addition(path_graph(5), 3)

    def test_too_few_vertices(self):
        assert not solve_with_addition(complete(4), 5)

    def test_exact_boundary(self):
        assert solve_with_addition(complete(4), 3)
        assert not solve_with_addition(complete(4), 4)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            solve_with_addition(complete(3), -1)
