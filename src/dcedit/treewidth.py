"""Regular-subgraph existence via dynamic programming on tree decompositions.

Three structural questions, all on the unweighted shape of the graph (edge
and vertex weights are ignored):

* does a nonempty *induced* subgraph exist in which every vertex has
  degree exactly r (``solve_induced_regular``),
* does a nonempty r-regular subgraph exist when edges may be dropped too
  (``solve_regular_subgraph``),
* and the with-edge-addition variant, which collapses to a counting
  argument: any r+1 vertices can be completed into a K_{r+1}
  (``solve_with_addition``).

Callers may hand in their own tree decomposition (validated first) or rely
on the built-in minimum-degree elimination heuristic.  A width below r is
an immediate no: width-w graphs are w-degenerate, so every subgraph keeps
a vertex of degree at most w.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from .graphs import WeightedGraph, edge_key


@dataclass
class TreeDecomposition:
    """Bags indexed by node id plus an undirected tree over those ids."""

    bags: Dict[int, FrozenSet]
    tree: Tuple[Tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1


def validate_decomposition(g: WeightedGraph, td: TreeDecomposition) -> bool:
    """True iff td is a tree whose bags cover vertices, cover edges, and
    stay connected per vertex."""
    ids = set(td.bags)
    if not ids:
        return False
    if any(i not in ids or j not in ids or i == j for (i, j) in td.tree):
        return False
    # tree-ness: connected with exactly |bags| - 1 edges
    if len(td.tree) != len(ids) - 1:
        return False
    neigh: Dict[int, set] = {i: set() for i in ids}
    for (i, j) in td.tree:
        neigh[i].add(j)
        neigh[j].add(i)
    start = next(iter(ids))
    seen = {start}
    stack = [start]
    while stack:
        for j in neigh[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if seen != ids:
        return False
    verts = set(g.vertices())
    covered = set().union(*td.bags.values()) if td.bags else set()
    if covered != verts:
        return False
    for (u, v) in g.edges():
        if not any(u in b and v in b for b in td.bags.values()):
            return False
    # the bags holding v induce a forest in the tree, and a forest on s
    # nodes with c parts has s - c edges: connected iff one edge fewer
    bags = td.bags
    holding = Counter(chain.from_iterable(bags.values()))
    linking = Counter(chain.from_iterable(bags[i] & bags[j] for (i, j) in td.tree))
    return all(holding[v] - linking[v] == 1 for v in holding)


def greedy_decomposition(g: WeightedGraph) -> TreeDecomposition:
    """Minimum-degree elimination; width is an upper bound on tw(g)."""
    verts = g.vertices()
    if not verts:
        return TreeDecomposition({0: frozenset()}, ())
    adj = {v: set(g.neighbors(v)) for v in verts}
    elim_step: Dict = {}
    bag_list: List[Tuple] = []  # (eliminated vertex, bag)
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        rest = sorted(adj[v])
        bag_list.append((v, frozenset([v] + rest)))
        elim_step[v] = len(bag_list) - 1
        for a in rest:
            adj[a].discard(v)
        for a, b in combinations(rest, 2):
            adj[a].add(b)
            adj[b].add(a)
        del adj[v]
    bags = {i: bag for i, (_, bag) in enumerate(bag_list)}
    edges: List[Tuple[int, int]] = []
    roots: List[int] = []
    for i, (v, bag) in enumerate(bag_list):
        others = bag - {v}
        if others:
            # attach below the earliest-eliminated co-member
            edges.append((i, min(elim_step[u] for u in others)))
        else:
            roots.append(i)
    for a, b in zip(roots, roots[1:]):  # stitch components into one tree
        edges.append((a, b))
    return TreeDecomposition(bags, tuple(edges))


# -- nice form --------------------------------------------------------------

LEAF = "leaf"
INTRODUCE = "introduce"
INTRODUCE_EDGE = "introduce_edge"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class NiceNode:
    kind: str
    bag: FrozenSet
    children: Tuple[int, ...]
    vertex: Optional[object] = None
    edge: Optional[Tuple] = None


@dataclass(frozen=True)
class NiceDecomposition:
    """Rooted, typed refinement; node ids are topological (children first),
    the root is the last node and has an empty bag.  Every graph edge is
    introduced at exactly one introduce-edge node."""

    nodes: Tuple[NiceNode, ...]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max(len(n.bag) for n in self.nodes) - 1


def make_nice(g: WeightedGraph, td: TreeDecomposition) -> NiceDecomposition:
    nodes: List[NiceNode] = []
    claimed: set = set()

    def emit(node: NiceNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def introduce(below: int, v) -> int:
        bag = nodes[below].bag | {v}
        top = emit(NiceNode(INTRODUCE, bag, (below,), vertex=v))
        for u in sorted(bag - {v}):
            e = edge_key(u, v)
            if g.has_edge(*e) and e not in claimed:
                claimed.add(e)
                top = emit(NiceNode(INTRODUCE_EDGE, bag, (top,), edge=e))
        return top

    def raise_to(below: int, target: FrozenSet) -> int:
        top = below
        for v in sorted(nodes[top].bag - target):
            top = emit(NiceNode(FORGET, nodes[top].bag - {v}, (top,), vertex=v))
        for v in sorted(target - nodes[top].bag):
            top = introduce(top, v)
        return top

    root_bag_id = min(td.bags)
    neigh: Dict[int, List[int]] = {i: [] for i in td.bags}
    for (i, j) in td.tree:
        neigh[i].append(j)
        neigh[j].append(i)
    # iterative post-order over the rooted bag tree
    done: Dict[int, int] = {}
    stack: List[Tuple[int, Optional[int], bool]] = [(root_bag_id, None, False)]
    while stack:
        bag_id, parent, expanded = stack.pop()
        if not expanded:
            stack.append((bag_id, parent, True))
            for c in sorted(neigh[bag_id]):
                if c != parent:
                    stack.append((c, bag_id, False))
            continue
        bag = td.bags[bag_id]
        kids = [done[c] for c in sorted(neigh[bag_id]) if c != parent]
        if not kids:
            top = raise_to(emit(NiceNode(LEAF, frozenset(), ())), bag)
        else:
            tops = [raise_to(c, bag) for c in kids]
            top = tops[0]
            for nxt in tops[1:]:
                top = emit(NiceNode(JOIN, bag, (top, nxt)))
        done[bag_id] = top
    raise_to(done[root_bag_id], frozenset())
    if len(claimed) != len(g.edges()):
        raise AssertionError("nice decomposition failed to claim every edge")
    return NiceDecomposition(tuple(nodes))


# -- the DP -----------------------------------------------------------------


def _run_dp(g: WeightedGraph, r: int, td: Optional[TreeDecomposition],
            induced: bool) -> bool:
    if r < 0:
        raise ValueError("r must be non-negative")
    if td is None:
        td = greedy_decomposition(g)
    elif not validate_decomposition(g, td):
        raise ValueError("invalid tree decomposition for this graph")
    if r > td.width:
        return False  # width-w graphs are w-degenerate
    nd = make_nice(g, td)
    order = [tuple(sorted(n.bag)) for n in nd.nodes]
    tables: List[set] = []
    for idx, node in enumerate(nd.nodes):
        if node.kind == LEAF:
            states = {((), False)}
        elif node.kind == INTRODUCE:
            p = bisect_left(order[idx], node.vertex)
            states = set()
            for st, ne in tables[node.children[0]]:
                states.add((st[:p] + (None,) + st[p:], ne))
                states.add((st[:p] + (0,) + st[p:], True))
        elif node.kind == INTRODUCE_EDGE:
            u, v = node.edge
            pu = bisect_left(order[idx], u)
            pv = bisect_left(order[idx], v)
            states = set()
            for st, ne in tables[node.children[0]]:
                if st[pu] is None or st[pv] is None:
                    states.add((st, ne))
                    continue
                if not induced:
                    states.add((st, ne))  # leave the edge out
                if st[pu] < r and st[pv] < r:
                    lifted = list(st)
                    lifted[pu] += 1
                    lifted[pv] += 1
                    states.add((tuple(lifted), ne))
        elif node.kind == FORGET:
            child = node.children[0]
            p = bisect_left(order[child], node.vertex)
            states = set()
            for st, ne in tables[child]:
                if st[p] is None or st[p] == r:
                    states.add((st[:p] + st[p + 1:], ne))
        else:  # JOIN
            left, right = node.children
            by_pattern: Dict[Tuple, List] = {}
            for st, ne in tables[right]:
                by_pattern.setdefault(tuple(s is not None for s in st), []).append((st, ne))
            states = set()
            for st, ne in tables[left]:
                for st2, ne2 in by_pattern.get(tuple(s is not None for s in st), ()):
                    merged = tuple(
                        None if a is None else a + b for a, b in zip(st, st2)
                    )
                    if all(c is None or c <= r for c in merged):
                        states.add((merged, ne or ne2))
        tables.append(states)
    return ((), True) in tables[nd.root]


def solve_induced_regular(g: WeightedGraph, r: int,
                          td: Optional[TreeDecomposition] = None) -> bool:
    """Nonempty induced subgraph with every degree exactly r?"""
    return _run_dp(g, r, td, induced=True)


def solve_regular_subgraph(g: WeightedGraph, r: int,
                           td: Optional[TreeDecomposition] = None) -> bool:
    """Nonempty r-regular subgraph, edge deletions allowed?"""
    return _run_dp(g, r, td, induced=False)


def solve_with_addition(g: WeightedGraph, r: int) -> bool:
    """With edge addition available, any r+1 vertices complete to K_{r+1}."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return g.n >= r + 1
