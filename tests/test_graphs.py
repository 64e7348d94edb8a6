import pytest
from hypothesis import given, strategies as st

from dcedit.graphs import (
    WeightedGraph,
    common_neighbor_count,
    complete,
    cycle,
    edge_key,
    line_graph,
    petersen,
    random_graph,
    weighted_degree,
    weighted_edge_degree,
)

from conftest import path_graph, star_graph


def small_graphs(max_n=6):
    """Hypothesis strategy: (vertex weights, edge weights) built from a mask."""
    def build(data):
        n, mask, weighted = data
        verts = {i: (i % 3) + 1 if weighted else 1 for i in range(n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = {p: (sum(p) % 3) + 1 if weighted else 1
                 for idx, p in enumerate(pairs) if mask >> idx & 1}
        return WeightedGraph(verts, edges)
    return st.tuples(st.integers(1, max_n), st.integers(0, 2 ** 15 - 1),
                     st.booleans()).map(build)


class TestConstruction:
    def test_basic(self):
        g = WeightedGraph({0: 1, 1: 2}, {(0, 1): 3})
        assert g.n == 2 and g.m == 1
        assert g.vertex_weight(1) == 2
        assert g.edge_weight(1, 0) == 3
        assert g.neighbors(0) == frozenset({1})

    def test_weight_views_are_read_only(self):
        g = WeightedGraph({0: 1, 1: 2}, {(1, 0): 3})
        assert dict(g.vertex_weights()) == {0: 1, 1: 2}
        assert dict(g.edge_weights()) == {(0, 1): 3}
        with pytest.raises(TypeError):
            g.edge_weights()[(0, 1)] = 5
        assert g.edge_weight(0, 1) == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph({0: 1}, {(0, 0): 1})

    def test_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            WeightedGraph({0: 1}, {(0, 1): 1})

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedGraph({0: 0}, {})
        with pytest.raises(ValueError):
            WeightedGraph({0: 1, 1: 1}, {(0, 1): 0})

    def test_build_takes_plain_ids_and_pairs(self):
        # every weight is 1, so a tuple is an id, never an (id, weight) pair
        g = WeightedGraph.build([(0, 1), (1, 2)], [((0, 1), (1, 2))])
        assert dict(g.vertex_weights()) == {(0, 1): 1, (1, 2): 1}
        assert dict(g.edge_weights()) == {((0, 1), (1, 2)): 1}
        with pytest.raises(ValueError):
            WeightedGraph.build([0, 1], [(0, 1, 2)])

    def test_edge_key_canonical(self):
        assert edge_key(3, 1) == (1, 3) == edge_key(1, 3)


class TestEdits:
    def test_delete_vertex_drops_incident_edges(self):
        g = star_graph(3).delete_vertex(3)
        assert g.m == 0 and g.n == 3

    def test_delete_missing_vertex(self):
        with pytest.raises(KeyError):
            complete(3).delete_vertex(9)

    def test_delete_edge(self):
        g = complete(3).delete_edge(0, 1)
        assert g.m == 2 and g.n == 3

    def test_add_edge_rejects_parallel(self):
        with pytest.raises(ValueError):
            complete(3).add_edge(0, 1)

    def test_edits_leave_original_untouched(self):
        g = complete(3)
        g.delete_vertex(0)
        g.delete_edge(0, 1)
        assert g.n == 3 and g.m == 3


# frozen degree values on the named graphs
def test_weighted_degree_unit():
    g = star_graph(3)
    assert weighted_degree(g, 3) == 3
    assert weighted_degree(g, 0) == 1


def test_weighted_degree_weighted():
    g = WeightedGraph({0: 1, 1: 1, 2: 1}, {(0, 1): 4, (1, 2): 2})
    assert weighted_degree(g, 1) == 6
    assert weighted_edge_degree(g, 0, 1) == 10  # 4 + 6


def test_edge_degree_cycle():
    assert weighted_edge_degree(cycle(5), 0, 1) == 4


def test_common_neighbors():
    assert common_neighbor_count(cycle(5), 0, 2) == 1
    assert common_neighbor_count(cycle(5), 0, 1) == 0
    assert common_neighbor_count(complete(4), 0, 1) == 2
    with pytest.raises(ValueError):
        common_neighbor_count(cycle(5), 2, 2)


class TestGenerators:
    def test_complete(self):
        g = complete(4)
        assert g.n == 4 and g.m == 6

    def test_cycle_bounds(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_petersen_is_cubic(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        assert all(len(g.neighbors(v)) == 3 for v in g.vertices())

    def test_random_graph_deterministic(self):
        a = random_graph(8, 0.5, seed=42)
        b = random_graph(8, 0.5, seed=42)
        assert a == b
        assert a != random_graph(8, 0.5, seed=43)

    def test_random_graph_extremes(self):
        assert random_graph(5, 0.0, seed=0).m == 0
        assert random_graph(5, 1.0, seed=0).m == 10


class TestLineGraph:
    def test_star_becomes_triangle(self):
        lg = line_graph(star_graph(3))
        assert lg.n == 3 and lg.m == 3  # K_{1,3} -> K3

    def test_cycle_is_self(self):
        lg = line_graph(cycle(5))
        assert lg.n == 5 and lg.m == 5
        assert all(len(lg.neighbors(v)) == 2 for v in lg.vertices())

    def test_nodes_are_edge_pairs(self):
        lg = line_graph(path_graph(3))
        assert set(lg.vertices()) == {(0, 1), (1, 2)}
        assert lg.has_edge((0, 1), (1, 2))

    def test_line_graph_degree_identity(self):
        # d_L(uv) = d(u) + d(v) - 2 on unit weights
        g = random_graph(7, 0.5, seed=3)
        lg = line_graph(g)
        for (u, v) in g.edges():
            expect = len(g.neighbors(u)) + len(g.neighbors(v)) - 2
            assert len(lg.neighbors((u, v))) == expect


@given(small_graphs())
def test_key_roundtrips_equality(g):
    clone = WeightedGraph({v: g.vertex_weight(v) for v in g.vertices()},
                          {e: g.edge_weight(*e) for e in g.edges()})
    assert clone == g and hash(clone) == hash(g) and clone.key() == g.key()


@given(small_graphs())
def test_vertex_deletion_degree_drop(g):
    for v in g.vertices():
        h = g.delete_vertex(v)
        assert v not in h.vertices()
        for u in h.vertices():
            drop = g.edge_weight(u, v) if g.has_edge(u, v) else 0
            assert weighted_degree(h, u) == weighted_degree(g, u) - drop


@given(small_graphs())
def test_non_adjacent_pairs_partition(g):
    non_adj = set(g.non_adjacent_pairs())
    edges = set(g.edges())
    n = g.n
    assert len(non_adj) + len(edges) == n * (n - 1) // 2
    assert not (non_adj & edges)
