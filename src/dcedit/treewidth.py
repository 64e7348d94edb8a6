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

The DP is one post-order walk over the decomposition as given, rooted at its
least bag id.  A table's states give each bag vertex its degree so far (at
most r), or None when it is left out, plus whether any vertex is kept.  Each
child's table is brought to its parent's bag by forgetting the vertices the
parent lacks (a kept one must have degree exactly r), then introducing the
new ones one at a time; each graph edge is introduced once, when the later
of its two ends arrives in a bag that holds the other.  Sibling tables are
joined by adding degrees, and each child's table is dropped once merged; the
root's is forgotten down to the empty bag.  These are the steps of a nice
decomposition (Cygan et al., *Parameterized Algorithms*, 2015, ch. 7),
applied without building one.
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
    claimed: set = set()

    def lift(order: Tuple, states: set, bag: FrozenSet) -> Tuple[Tuple, set]:
        """Bring a table on the sorted bag ``order`` to ``bag``: forget the
        vertices it leaves, then introduce the new ones with their edges."""
        keep = [p for p, v in enumerate(order) if v in bag]
        drop = [p for p, v in enumerate(order) if v not in bag]
        if drop:  # a forgotten vertex ends with degree r or outside the subgraph
            states = {(tuple(st[p] for p in keep), ne) for st, ne in states
                      if all(st[p] is None or st[p] == r for p in drop)}
            order = tuple(order[p] for p in keep)
        for v in sorted(bag.difference(order)):
            p = bisect_left(order, v)
            order = order[:p] + (v,) + order[p:]
            states = {(st[:p] + (d,) + st[p:], ne or d == 0)
                      for st, ne in states for d in (None, 0)}
            for pu, u in enumerate(order):
                e = edge_key(u, v)
                if u != v and e not in claimed and g.has_edge(u, v):
                    claimed.add(e)  # each edge once, when its later end arrives
                    states = edge(states, pu, p)
        return order, states

    def edge(states: set, pu: int, pv: int) -> set:
        out = set()
        for st, ne in states:
            if st[pu] is None or st[pv] is None:
                out.add((st, ne))
                continue
            if not induced:
                out.add((st, ne))  # leave the edge out
            if st[pu] < r and st[pv] < r:
                lifted = list(st)
                lifted[pu] += 1
                lifted[pv] += 1
                out.add((tuple(lifted), ne))
        return out

    def join(left: set, right: set) -> set:
        by_pattern: Dict[Tuple, List] = {}
        for st, ne in right:
            by_pattern.setdefault(tuple(s is not None for s in st), []).append((st, ne))
        out = set()
        for st, ne in left:
            for st2, ne2 in by_pattern.get(tuple(s is not None for s in st), ()):
                merged = tuple(None if a is None else a + b for a, b in zip(st, st2))
                if all(c is None or c <= r for c in merged):
                    out.add((merged, ne or ne2))
        return out

    root = min(td.bags)
    neigh: Dict[int, List[int]] = {i: [] for i in td.bags}
    for (i, j) in td.tree:
        neigh[i].append(j)
        neigh[j].append(i)
    # iterative post-order over the bag tree; a bag's table replaces its
    # children's, which are dropped as they are merged
    done: Dict[int, Tuple[Tuple, set]] = {}
    stack: List[Tuple[int, Optional[int], bool]] = [(root, None, False)]
    while stack:
        bag_id, parent, expanded = stack.pop()
        kids = [c for c in sorted(neigh[bag_id]) if c != parent]
        if not expanded:
            stack.append((bag_id, parent, True))
            stack.extend((c, bag_id, False) for c in kids)
            continue
        bag = td.bags[bag_id]
        order, states = lift(*(done.pop(kids[0]) if kids else ((), {((), False)})), bag)
        for c in kids[1:]:
            states = join(states, lift(*done.pop(c), bag)[1])
        done[bag_id] = order, states
    _, states = lift(*done.pop(root), frozenset())
    if len(claimed) != len(g.edges()):
        raise AssertionError("the walk failed to introduce every edge")
    return ((), True) in states


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
