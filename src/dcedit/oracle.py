"""Exhaustive ground-truth solvers.

``brute_force_solve`` enumerates every *set* of legal edits of total cost
at most k (deletion order is irrelevant to the outcome, so scripts are
sets; the reported witness is serialized in canonical order).  Edge
deletion always removes the whole edge at its full weight; additions are
unit-weight, joined only pairs non-adjacent in the input graph with both
endpoints surviving (re-adding a just-deleted edge is never minimal).

Enumeration is cached per (graph, budget, adds?) so sweeping many
constraint sets over one graph — the typical test workload — prices each
edit set once.  Each cached candidate carries the full ``problems.measures``
of its result, so one universe serves every kind, and a candidate is tested
with ``problems.violations``, the one definition of what each kind checks.
A universe stores each step tuple and each distinct measure tuple once; its
candidates share them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional

from .graphs import WeightedGraph
from .problems import (
    EADD,
    EDEL,
    VDEL,
    EditScript,
    Measures,
    ProblemInstance,
    measures,
    step_sort_key,
    violations,
)

ORACLE_MAX_VERTICES = 10
ORACLE_MAX_BUDGET = 6

_MASK = {VDEL: 1, EDEL: 2, EADD: 4}


@dataclass(frozen=True)
class OracleResult:
    answer: bool
    witness: Optional[EditScript]


def _weighted_subsets(items, cap):
    """All subsets of ``items`` = [(id, weight), ...] with total weight <= cap."""
    out = []
    chosen = []

    def rec(i, total):
        out.append((tuple(chosen), total))
        for j in range(i, len(items)):
            ident, w = items[j]
            if total + w <= cap:
                chosen.append(ident)
                rec(j + 1, total + w)
                chosen.pop()

    rec(0, 0)
    return out


class _Candidate:
    """One edit set (cost, canonical steps, operation mask) plus the
    ``Measures`` fields of its result, in ``Measures`` order."""

    __slots__ = ("cost", "steps", "mask") + Measures._fields

    def __init__(self, cost, steps, mask, fields):
        self.cost = cost
        self.steps = steps
        self.mask = mask
        (self.verts, self.wdeg, self.edges, self.edeg, self.ecom, self.pairs,
         self.pcom) = fields


@lru_cache(maxsize=128)
def _universe(g: WeightedGraph, cap: int, include_adds: bool):
    """All candidates of cost <= cap, sorted by (cost, canonical script)."""
    all_vs = g.vertices()
    all_es = g.edges()
    ew = {e: g.edge_weight(*e) for e in all_es}
    vitems = [(v, g.vertex_weight(v)) for v in all_vs]
    nonedges = tuple(g.non_adjacent_pairs())
    # candidates share step and measure tuples, so cached universes stay
    # small; each step's sort key is computed once
    vstep = {v: (VDEL, v) for v in all_vs}
    estep = {e: (EDEL,) + e for e in all_es}
    astep = {p: (EADD,) + p for p in nonedges}
    step_key = {s: step_sort_key(s)
                for d in (vstep, estep, astep) for s in d.values()}.__getitem__
    shared = {}.setdefault

    out = []
    for dv, cv in _weighted_subsets(vitems, cap):
        dvset = set(dv)
        verts = tuple(v for v in all_vs if v not in dvset)
        surv_es = [e for e in all_es if e[0] not in dvset and e[1] not in dvset]
        eitems = [(e, ew[e]) for e in surv_es]
        addable = [p for p in nonedges if p[0] not in dvset and p[1] not in dvset]
        for de, ce in _weighted_subsets(eitems, cap - cv):
            rest = cap - cv - ce
            if include_adds and rest > 0:
                add_choices = [
                    tuple(c) for s in range(rest + 1)
                    for c in combinations(addable, s)
                ]
            else:
                add_choices = [()]
            deset = set(de)
            for added in add_choices:
                cost = cv + ce + len(added)
                nbr = {v: set() for v in verts}
                final_edges = [e for e in surv_es if e not in deset] + list(added)
                final_edges.sort()
                for (u, v) in final_edges:
                    nbr[u].add(v)
                    nbr[v].add(u)
                # subsets keep their input's sorted order, so this is canonical
                steps = tuple(
                    [vstep[v] for v in dv]
                    + [estep[e] for e in de]
                    + [astep[p] for p in added]
                )
                mask = (1 if dv else 0) | (2 if de else 0) | (4 if added else 0)
                m = measures(verts, tuple(final_edges), nbr, ew)
                out.append(_Candidate(cost, steps, mask, [shared(f, f) for f in m]))
    out.sort(key=lambda c: (c.cost, tuple(map(step_key, c.steps))))
    return tuple(out)


def _candidate_satisfies(inst: ProblemInstance, cand: _Candidate) -> bool:
    return next(violations(inst, cand), None) is None


def brute_force_solve(inst: ProblemInstance) -> OracleResult:
    """First satisfying edit set in (cost, canonical order), else a no."""
    if inst.graph.n > ORACLE_MAX_VERTICES or inst.k > ORACLE_MAX_BUDGET:
        warnings.warn(
            f"oracle envelope exceeded (n={inst.graph.n}, k={inst.k}); "
            "this may take a very long time",
            stacklevel=2,
        )
    if inst.k < 0:
        return OracleResult(False, None)
    include_adds = EADD in inst.ops
    opsmask = 0
    for op in inst.ops:
        opsmask |= _MASK[op]
    for cand in _universe(inst.graph, inst.k, include_adds):
        if cand.cost > inst.k:
            break
        if cand.mask & ~opsmask:
            continue
        if _candidate_satisfies(inst, cand):
            return OracleResult(True, EditScript(cand.steps, cand.cost))
    return OracleResult(False, None)


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
