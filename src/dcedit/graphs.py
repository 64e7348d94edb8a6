"""Simple undirected graphs with positive integer vertex and edge weights.

Vertex ids are arbitrary sortable hashables (the file formats restrict them
to integers; line graphs use edge tuples as ids).  Graphs are treated as
immutable values: every mutator returns a fresh graph, and two graphs with
the same vertices, edges and weights compare and hash equal.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, Tuple


def edge_key(u, v):
    """Canonical unordered representation of the pair {u, v}."""
    return (u, v) if u <= v else (v, u)


class WeightedGraph:
    """Vertex weights, edge weights keyed by ``edge_key`` pairs, and the
    frozenset adjacency that ``neighbors``, ``adjacency`` and
    ``non_adjacent_pairs`` read.  The adjacency is built when one of those
    three is first called, so a graph whose adjacency is never read never
    builds it: a parsed instance that a search tree answers, YES or NO, is
    searched and its witness priced on the weight maps alone."""

    __slots__ = ("_vw", "_ew", "_adj", "_key")

    def __init__(self, vertex_weights: Dict, edge_weights: Dict):
        vw = dict(vertex_weights)
        for v, w in vw.items():
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"vertex {v!r} has non-positive weight {w!r}")
        ew = {}
        for (u, v), w in edge_weights.items():
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            ke = (u, v) if u <= v else (v, u)
            if ke in ew:
                raise ValueError(f"parallel edge {ke!r}")
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge {ke!r} has non-positive weight {w!r}")
            if u not in vw or v not in vw:
                end = ke[0] if ke[0] not in vw else ke[1]
                raise ValueError(f"edge {ke!r} references missing vertex {end!r}")
            ew[ke] = w
        self._vw = vw
        self._ew = ew
        self._adj = None
        self._key = None

    @classmethod
    def _owning(cls, vw: Dict, ew: Dict) -> "WeightedGraph":
        """A graph that takes ownership of ``vw`` and ``ew`` as they are.

        For callers that have already made every check of ``__init__``:
        positive int weights, ``edge_key`` pairs on declared vertices.
        """
        g = cls.__new__(cls)
        g._vw = vw
        g._ew = ew
        g._adj = None
        g._key = None
        return g

    def _adjacency(self) -> Dict:
        """The map from each vertex to its neighbour set, built on the
        first call."""
        if self._adj is None:
            adj = {v: set() for v in self._vw}
            for u, v in self._ew:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        return self._adj

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable) -> "WeightedGraph":
        """The graph on vertex ids ``vertices`` and ``(u, v)`` pairs
        ``edges``, every weight 1."""
        return cls(dict.fromkeys(vertices, 1), {(u, v): 1 for u, v in edges})

    # -- inspection ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vw)

    @property
    def m(self) -> int:
        return len(self._ew)

    def vertices(self) -> Tuple:
        return tuple(sorted(self._vw))

    def edges(self) -> Tuple:
        return tuple(sorted(self._ew))

    def has_vertex(self, v) -> bool:
        return v in self._vw

    def has_edge(self, u, v) -> bool:
        return edge_key(u, v) in self._ew

    def vertex_weight(self, v) -> int:
        try:
            return self._vw[v]
        except KeyError:
            raise KeyError(f"no vertex {v!r}") from None

    def edge_weight(self, u, v) -> int:
        ke = edge_key(u, v)
        try:
            return self._ew[ke]
        except KeyError:
            raise KeyError(f"no edge {ke!r}") from None

    def vertex_weights(self) -> Mapping:
        """Read-only view of the vertex-to-weight map."""
        return MappingProxyType(self._vw)

    def edge_weights(self) -> Mapping:
        """Read-only view of the map from ``edge_key`` pairs to weights."""
        return MappingProxyType(self._ew)

    def adjacency(self) -> Mapping:
        """Read-only view of the map from each vertex to its neighbour set."""
        return MappingProxyType(self._adjacency())

    def neighbors(self, v) -> frozenset:
        return self._adjacency()[v]

    def non_adjacent_pairs(self) -> Iterator[Tuple]:
        vs = self.vertices()
        adj = self._adjacency()
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if v not in adj[u]:
                    yield (u, v)

    # -- edits (all return fresh graphs) ------------------------------------

    def delete_vertex(self, v) -> "WeightedGraph":
        if v not in self._vw:
            raise KeyError(f"no vertex {v!r}")
        vw = {x: w for x, w in self._vw.items() if x != v}
        ew = {e: w for e, w in self._ew.items() if v not in e}
        return WeightedGraph(vw, ew)

    def delete_edge(self, u, v) -> "WeightedGraph":
        ke = edge_key(u, v)
        if ke not in self._ew:
            raise KeyError(f"no edge {ke!r}")
        ew = {e: w for e, w in self._ew.items() if e != ke}
        return WeightedGraph(self._vw, ew)

    def add_edge(self, u, v, weight: int = 1) -> "WeightedGraph":
        ke = edge_key(u, v)
        if ke in self._ew:
            raise ValueError(f"edge {ke!r} already present")
        ew = dict(self._ew)
        ew[ke] = weight
        return WeightedGraph(self._vw, ew)

    def add_vertex(self, v, weight: int = 1) -> "WeightedGraph":
        if v in self._vw:
            raise ValueError(f"vertex {v!r} already present")
        vw = dict(self._vw)
        vw[v] = weight
        return WeightedGraph(vw, self._ew)

    def set_edge_weight(self, u, v, weight: int) -> "WeightedGraph":
        ke = edge_key(u, v)
        if ke not in self._ew:
            raise KeyError(f"no edge {ke!r}")
        ew = dict(self._ew)
        ew[ke] = weight
        return WeightedGraph(self._vw, ew)

    def set_vertex_weight(self, v, weight: int) -> "WeightedGraph":
        if v not in self._vw:
            raise KeyError(f"no vertex {v!r}")
        vw = dict(self._vw)
        vw[v] = weight
        return WeightedGraph(vw, self._ew)

    def subgraph(self, keep: Iterable) -> "WeightedGraph":
        """Induced subgraph on the given vertices."""
        keep = set(keep)
        vw = {v: w for v, w in self._vw.items() if v in keep}
        ew = {e: w for e, w in self._ew.items() if e[0] in keep and e[1] in keep}
        return WeightedGraph(vw, ew)

    # -- identity -----------------------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable form (used for caching and equality)."""
        if self._key is None:
            self._key = (
                tuple(sorted(self._vw.items())),
                tuple(sorted(self._ew.items())),
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


# -- degree measures --------------------------------------------------------


def weighted_degree(g: WeightedGraph, v) -> int:
    """d^rho(v): sum of the weights of the edges incident to v."""
    if not g.has_vertex(v):
        raise KeyError(f"unknown vertex {v!r}")
    return sum(g.edge_weight(v, u) for u in g.neighbors(v))


def weighted_edge_degree(g: WeightedGraph, u, v) -> int:
    """d^rho(uv) = d^rho(u) + d^rho(v), for an edge uv."""
    if not g.has_edge(u, v):
        raise KeyError(f"pair ({u!r}, {v!r}) is not an edge")
    return weighted_degree(g, u) + weighted_degree(g, v)


def common_neighbor_count(g: WeightedGraph, u, v) -> int:
    """|N(u) & N(v)| in the plain adjacency sense; u and v need not be adjacent."""
    if u == v:
        raise ValueError("common_neighbor_count needs two distinct vertices")
    return len(g.neighbors(u) & g.neighbors(v))


def line_graph(g: WeightedGraph) -> WeightedGraph:
    """Unit-weight graph on g's edges; two edges adjacent iff they share an endpoint."""
    nodes = list(g.edges())
    edges = {}
    for i, e in enumerate(nodes):
        for f in nodes[i + 1:]:
            if e[0] in f or e[1] in f:
                edges[(e, f)] = 1
    return WeightedGraph({e: 1 for e in nodes}, edges)


# -- generators -------------------------------------------------------------


def complete(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    return WeightedGraph.build(
        range(n), [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    return WeightedGraph.build(range(n), [(i, (i + 1) % n) for i in range(n)])


def petersen() -> WeightedGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i--i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return WeightedGraph.build(range(10), edges)


def random_graph(n: int, edge_probability: float, seed: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("random_graph(n, ...) needs n >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return WeightedGraph.build(range(n), edges)
