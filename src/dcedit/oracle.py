"""Exhaustive ground-truth solvers.

``brute_force_solve`` enumerates every *set* of legal edits of total cost
at most k (deletion order is irrelevant to the outcome, so scripts are
sets; the reported witness is serialized in canonical order).  Edge
deletion always removes the whole edge at its full weight; additions are
unit-weight, joined only pairs non-adjacent in the input graph with both
endpoints surviving (re-adding a just-deleted edge is never minimal).
It answers with a ``problems.SolveReport``, as the search trees do, with
0 nodes visited and no ``tr`` bound.

Enumeration is cached per (graph, budget, adds?) so sweeping many
constraint sets over one graph — the typical test workload — prices each
edit set once.  Each cached candidate carries the full ``Measures`` of its
result, so one universe serves every kind, and a candidate is tested with
``problems.violations``, the one definition of what each kind checks.

A universe is built one frame at a time.  A frame is one set of vertex
deletions of weight at most k, so of at most k vertices (each weighs at
least 1); it holds the surviving graph once, as a weighted degree per
vertex.  Edge deletions, then edge additions, are walked depth-first on
those degrees: toggling uv changes the degrees of u and v and flips uv's
bit in the edge-presence mask passed down the walk, and the walk undoes
the degrees on the way back.  Each candidate keeps its degrees and its
mask; its edge fields, and its common-neighbour counts (from
``problems.measures``, which builds neighbour sets from the candidate's
edges), are derived the first time they are read.  Most candidates fail a
vertex-degree test, which ``violations`` runs first, so their pair
measures are never derived.  The tests pin every field to
``problems.measures`` of the edited graph, whichever field is read first.
A universe stores each step tuple, vertex pair and distinct measure tuple
once; its candidates share them.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import combinations, compress
from typing import Iterator

from .graphs import WeightedGraph
from .problems import (
    EADD,
    EDEL,
    VDEL,
    WSRE,
    EditScript,
    Measures,
    ProblemInstance,
    SolveReport,
    measures,
    step_sort_key,
    violations,
)

ORACLE_MAX_VERTICES = 10
ORACLE_MAX_BUDGET = 6

_MASK = {VDEL: 1, EDEL: 2, EADD: 4}


class _Frame:
    """What the candidates of one frame share: the surviving vertices, their
    pairs in lexicographic order with the vertex indices of each pair, the
    graph's edge weights and the universe's tuple table."""

    __slots__ = ("verts", "pairs", "ends", "weights", "table")

    def __init__(self, verts, pairs, ends, weights, table):
        self.verts = verts
        self.pairs = pairs
        self.ends = ends
        self.weights = weights
        self.table = table

    def shared(self, t):
        """The universe's one copy of tuple ``t``."""
        return self.table.setdefault(t, t)

    def flags(self, present):
        """Is pair p an edge?  One flag per pair, from the bits of ``present``."""
        return [present >> p & 1 for p in range(len(self.pairs))]


class _Candidate:
    """One edit set (cost, canonical steps, operation mask) plus the
    ``Measures`` fields of its result, in ``Measures`` order.

    The walk sets ``verts``, ``wdeg`` and ``present``, one bit per pair of
    the frame that is an edge of the result.  The edge fields, then the
    common-neighbour fields, are derived from those on their first read."""

    __slots__ = ("cost", "steps", "mask", "frame", "present") + Measures._fields

    def __init__(self, cost, steps, mask, frame, wdeg, present):
        self.cost = cost
        self.steps = steps
        self.mask = mask
        self.frame = frame
        self.verts = frame.verts
        self.wdeg = wdeg
        self.present = present

    def __getattr__(self, name):
        # reached only for a name that is not set: each field is derived once
        if name in ("edges", "edeg"):
            fr = self.frame
            on = fr.flags(self.present)
            wd = self.wdeg
            self.edges = fr.shared(tuple(compress(fr.pairs, on)))
            self.edeg = fr.shared(tuple([wd[i] + wd[j] for i, j in compress(fr.ends, on)]))
        elif name in ("ecom", "pairs", "pcom"):
            fr = self.frame
            m = measures(fr.verts, self.edges, fr.weights, WSRE)
            self.ecom = fr.shared(m.ecom)
            # m.pairs, but made of the frame's pair tuples, which the
            # universe holds once
            self.pairs = fr.shared(tuple(compress(
                fr.pairs, [not x for x in fr.flags(self.present)])))
            self.pcom = fr.shared(m.pcom)
        else:
            raise AttributeError(name)
        return getattr(self, name)


@lru_cache(maxsize=128)
def _universe(g: WeightedGraph, cap: int, include_adds: bool):
    """All candidates of cost <= cap, sorted by (cost, canonical script)."""
    all_vs = g.vertices()
    ew = g.edge_weights()
    # every frame takes its pairs from this one lexicographic tuple; a pair's
    # one step is edel if it is an edge of g, else eadd
    all_pairs = tuple(combinations(all_vs, 2))
    vstep = {v: (VDEL, v) for v in all_vs}
    pstep = {p: ((EDEL,) if p in ew else (EADD,)) + p for p in all_pairs}
    step_key = {s: step_sort_key(s)
                for d in (vstep, pstep) for s in d.values()}.__getitem__
    # candidates share step and measure tuples, so cached universes stay small
    table = {}
    shared = table.setdefault
    out = []

    def frame(dv, cv):
        """Every candidate that deletes exactly the vertices ``dv``."""
        gone = set(dv)
        verts = tuple(v for v in all_vs if v not in gone)
        pairs = tuple(p for p in all_pairs if p[0] not in gone and p[1] not in gone)
        at = {v: i for i, v in enumerate(verts)}
        ends = tuple([(at[u], at[v]) for u, v in pairs])
        fr = _Frame(verts, pairs, ends, ew, table)
        # the mutable graph is its weighted degrees; edge presence is a bit
        # per pair, passed down the walk
        wdeg = [0] * len(verts)
        present = 0
        # (i, j, weight, degree change, pair bit, step, mask bit): every edge
        # deletion, then every addition, so the steps of a walk come out in
        # canonical order
        moves = []
        for p, (i, j) in enumerate(ends):
            w = ew.get(pairs[p])
            if w is not None:
                wdeg[i] += w
                wdeg[j] += w
                present |= 1 << p
                moves.append((i, j, w, -w, 1 << p, pstep[pairs[p]], 2))
        if include_adds:
            moves += [(i, j, 1, 1, 1 << p, pstep[pairs[p]], 4)
                      for p, (i, j) in enumerate(ends) if not present >> p & 1]

        def walk(start, rest, cost, steps, mask, present):
            """Emit the current graph, then each subset of ``moves[start:]``
            that fits in ``rest``: one toggle in, its undo on the way back."""
            wd = tuple(wdeg)
            out.append(_Candidate(cost, steps, mask, fr, shared(wd, wd), present))
            if not rest:  # every move costs at least 1
                return
            for m in range(start, len(moves)):
                i, j, w, dw, bit, step, opbit = moves[m]
                if w <= rest:
                    wdeg[i] += dw
                    wdeg[j] += dw
                    walk(m + 1, rest - w, cost + w, steps + (step,), mask | opbit,
                         present ^ bit)
                    wdeg[i] -= dw
                    wdeg[j] -= dw

        walk(0, cap - cv, cv, tuple([vstep[v] for v in dv]), 1 if dv else 0, present)

    vw = g.vertex_weights()
    for size in range(min(cap, len(all_vs)) + 1):
        for dv in combinations(all_vs, size):
            cv = sum([vw[v] for v in dv])
            if cv <= cap:
                frame(dv, cv)
    out.sort(key=lambda c: (c.cost, tuple(map(step_key, c.steps))))
    return tuple(out)


def _candidate_satisfies(inst: ProblemInstance, cand: _Candidate) -> bool:
    return next(violations(inst, cand), None) is None


def brute_force_solve(inst: ProblemInstance) -> SolveReport:
    """First satisfying edit set in (cost, canonical order), else a no."""
    if inst.graph.n > ORACLE_MAX_VERTICES or inst.k > ORACLE_MAX_BUDGET:
        warnings.warn(
            f"oracle envelope exceeded (n={inst.graph.n}, k={inst.k}); "
            "this may take a very long time",
            stacklevel=2,
        )
    if inst.k < 0:
        return SolveReport(False, None, 0, None)
    include_adds = EADD in inst.ops
    opsmask = 0
    for op in inst.ops:
        opsmask |= _MASK[op]
    for cand in _universe(inst.graph, inst.k, include_adds):
        if cand.mask & ~opsmask:
            continue
        if _candidate_satisfies(inst, cand):
            return SolveReport(True, EditScript(cand.steps, cand.cost), 0, None)
    return SolveReport(False, None, 0, None)


def enumerate_labeled_graphs(n: int) -> Iterator[WeightedGraph]:
    """All 2^(n choose 2) unit-weight labeled graphs on vertices 0..n-1.

    Deterministic order: pair (i, j) with i < j is bit number p in the
    lexicographic pair ordering, and graphs appear as mask = 0, 1, 2, ...
    """
    if n > 6:
        raise ValueError("enumerate_labeled_graphs is capped at n = 6")
    if n < 0:
        raise ValueError("n must be non-negative")
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(all_pairs)):
        edges = [p for b, p in enumerate(all_pairs) if mask >> b & 1]
        yield WeightedGraph.build(range(n), edges)


# -- subset brute force for regular-subgraph existence ----------------------


def induced_regular_bruteforce(g: WeightedGraph, r: int) -> bool:
    """Is there a nonempty S with G[S] exactly r-regular?  (Unit weights.)"""
    vs = g.vertices()
    for size in range(1, len(vs) + 1):
        for sub in combinations(vs, size):
            inside = set(sub)
            if all(len(g.neighbors(v) & inside) == r for v in sub):
                return True
    return False


def _has_r_factor(sub, edges, r) -> bool:
    if (r * len(sub)) % 2:
        return False
    need = dict.fromkeys(sub, r)
    rem = dict.fromkeys(sub, 0)
    for (u, v) in edges:
        rem[u] += 1
        rem[v] += 1
    if any(need[v] > rem[v] for v in sub):
        return False

    def rec(i):
        if i == len(edges):
            return not any(need.values())
        u, v = edges[i]
        rem[u] -= 1
        rem[v] -= 1
        ok = False
        if need[u] > 0 and need[v] > 0:
            need[u] -= 1
            need[v] -= 1
            if need[u] <= rem[u] and need[v] <= rem[v]:
                ok = rec(i + 1)
            need[u] += 1
            need[v] += 1
        if not ok and need[u] <= rem[u] and need[v] <= rem[v]:
            ok = rec(i + 1)
        rem[u] += 1
        rem[v] += 1
        return ok

    return rec(0)


def regular_subgraph_bruteforce(g: WeightedGraph, r: int) -> bool:
    """Is there a nonempty S and E' within G[S] making (S, E') r-regular?"""
    vs = g.vertices()
    for size in range(1, len(vs) + 1):
        for sub in combinations(vs, size):
            inside = set(sub)
            edges = [e for e in g.edges() if e[0] in inside and e[1] in inside]
            if _has_r_factor(sub, edges, r):
                return True
    return False
