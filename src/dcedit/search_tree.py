"""Bounded-search-tree solvers with node accounting.

One engine, ``_search``, runs the search tree for every kind it covers:
accept when the budget is non-negative and every constraint holds, reject
when the budget is exhausted and a violation remains, otherwise branch on
a small hitting set of every possible repair.  A kind contributes only a
strategy: where the first violation sits, its ordered list of repairs,
and the branching factor that bounds that list (2r+5 for WEDCE, 3r+6 for
WERE, r+3 for either with vertex deletion only).  WERE's strategy also
names vertices every solution must delete; the engine removes them before
the node branches, without counting a node.  Branch sets are chosen
greedily so that if no branch element is edited, the surviving weight
around the violation pins its value above every reachable target — that
keeps the child count within the branching factor while staying complete.

Edge weights bring one wrinkle: the branch "reduce this edge's weight by
one" can leave an edge partially reduced, a state no legal edit set
realises (edge deletion is all-or-nothing at full weight).  Reduced edges
are therefore tracked as *pending* and a state only accepts once its
pending edges are gone — fully reduced, deleted outright, or removed with
an endpoint; the reported witness contains whole deletions only and is
re-priced against the input graph.  Weight-1 edges skip the reduction
branch entirely (reducing them is deleting them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graphs import WeightedGraph, edge_key
from .kernelize import kernel_bound, kernelize
from .oracle import (
    ORACLE_MAX_BUDGET,
    ORACLE_MAX_VERTICES,
    brute_force_solve,
)
from .problems import (
    EDEL,
    VDEL,
    WEDCE,
    WERE,
    WSRE,
    EditScript,
    ProblemInstance,
    canonical_steps,
    star_violation,
)

# Branch operation: lower an edge's weight by one (deleting it at weight 1).
_REDUCE = "reduce"


@dataclass(frozen=True)
class SolveReport:
    answer: bool
    witness: Optional[EditScript]
    nodes_visited: int
    tree_bound: Optional[int]


class KernelTooLargeError(RuntimeError):
    """The reduced instance exceeds the exhaustive phase's envelope."""


def tr(b: int, k: int) -> int:
    """Node count of a complete depth-k tree with branching factor b."""
    if b < 2:
        raise ValueError("tr needs branching factor b >= 2")
    if k < 0:
        raise ValueError("tr needs k >= 0")
    return (b ** (k + 1) - 1) // (b - 1)


def _wdeg(g: WeightedGraph) -> Dict:
    return {v: sum(g.edge_weight(v, u) for u in g.neighbors(v)) for v in g.vertices()}


def _max_allowed_at_most(allowed: frozenset, d: int) -> Optional[int]:
    below = [s for s in allowed if s <= d]
    return max(below) if below else None


# -- the engine -------------------------------------------------------------


def _edit(op: str, ref, g: WeightedGraph, k: int, pending: frozenset, steps: tuple):
    """The search state ``(g, k, pending, steps)`` after one edit, or None
    when the edit costs more than ``k``.  ``ref`` is a vertex for ``vdel``
    and an edge key otherwise."""
    if op == VDEL:
        cost = g.vertex_weight(ref)
        if cost > k:
            return None
        drop = {edge_key(ref, y) for y in g.neighbors(ref)}
        return g.delete_vertex(ref), k - cost, pending - drop, steps + ((VDEL, ref),)
    w = g.edge_weight(*ref)
    if op == _REDUCE and w > 1:
        if k < 1:
            return None
        return g.set_edge_weight(*ref, w - 1), k - 1, pending | {ref}, steps
    if w > k:
        return None
    return g.delete_edge(*ref), k - w, pending - {ref}, steps + ((EDEL,) + ref,)


class _Strategy:
    """The per-kind part of the search.  Subclasses supply
    ``factor(r, edel)``, the most children a node can have;
    ``violation(g, wd)``, the first violated constraint of ``g`` or None
    when all hold; and ``children(g, wd, bad)``, the ordered ``(op, ref)``
    repairs that hit every way to fix ``bad``.  ``wd`` maps each vertex of
    ``g`` to its weighted degree."""

    def __init__(self, cs):
        self.cs = cs

    def doomed(self, g: WeightedGraph, wd: Dict):
        """A vertex that every solution deletes, or None."""
        return None


def _search(inst: ProblemInstance, strategy: _Strategy) -> SolveReport:
    """Depth-first bounded search tree over deletions, driven by
    ``strategy``; children are tried in the strategy's order, skipping
    those whose operation ``inst.ops`` does not allow."""
    if not inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError(f"{inst.kind} search tree covers non-empty ops "
                         "within {vdel, edel}")
    allow_v = VDEL in inst.ops
    allow_e = EDEL in inst.ops
    nodes = 0
    hit: Optional[tuple] = None

    def recurse(g: WeightedGraph, k: int, pending: frozenset, steps: tuple) -> bool:
        nonlocal nodes, hit
        nodes += 1
        if k < 0:
            return False
        wd = _wdeg(g)
        while (x := strategy.doomed(g, wd)) is not None:
            state = _edit(VDEL, x, g, k, pending, steps) if allow_v else None
            if state is None:
                return False
            g, k, pending, steps = state
            wd = _wdeg(g)
        bad = strategy.violation(g, wd)
        if bad is None:
            if not pending:
                hit = steps
                return True
            # forced: keep reducing the least pending edge
            state = _edit(_REDUCE, min(pending), g, k, pending, steps)
            return state is not None and recurse(*state)
        if k <= 0:
            return False
        for op, ref in strategy.children(g, wd, bad):
            if not (allow_v if op == VDEL else allow_e):
                continue
            state = _edit(op, ref, g, k, pending, steps)
            if state is not None and recurse(*state):
                return True
        return False

    answer = recurse(inst.graph, inst.k, frozenset(), ())
    witness = EditScript.build(inst.graph, canonical_steps(hit)) if answer else None
    bound = tr(strategy.factor(inst.constraints.r, allow_e), max(inst.k, 0))
    return SolveReport(answer, witness, nodes, bound)


# -- WEDCE ------------------------------------------------------------------


class _Wedce(_Strategy):
    """Five-step branching on the least edge whose edge degree leaves its
    list: delete either endpoint, delete the edge, or cut into the weight
    around it until what survives pins the edge degree above its target."""

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 2 * r + 5 if edel else r + 3

    def violation(self, g: WeightedGraph, wd: Dict):
        for (u, v) in g.edges():
            if wd[u] + wd[v] not in self.cs.delta_of_edge(u, v):
                return (u, v)
        return None

    def children(self, g: WeightedGraph, wd: Dict, bad) -> List[Tuple[str, object]]:
        u, v = bad
        t = _max_allowed_at_most(self.cs.delta_of_edge(u, v), wd[u] + wd[v])
        out: List[Tuple[str, object]] = [(VDEL, u), (VDEL, v), (EDEL, bad)]
        if t is None:
            return out
        others = sorted((g.neighbors(u) | g.neighbors(v)) - {u, v})
        guarantee = 2 * g.edge_weight(u, v)
        m_sel: List = []
        chosen: List[tuple] = []
        for x in others:
            if guarantee >= t + 1:
                break
            cands = []
            if g.has_edge(x, u):
                cands.append((g.edge_weight(x, u), edge_key(x, u)))
            if g.has_edge(x, v):
                cands.append((g.edge_weight(x, v), edge_key(x, v)))
            w_best, e_best = max(cands, key=lambda p: (p[0], p[1]))
            m_sel.append(x)
            chosen.append(e_best)
            guarantee += w_best
        if guarantee < t + 1:
            # small neighbourhood: branch on everything around uv
            m_sel = others
            chosen = sorted(
                e for x in others for e in (edge_key(x, u), edge_key(x, v))
                if g.has_edge(*e)
            )
        return out + [(VDEL, x) for x in m_sel] + [(_REDUCE, e) for e in chosen]


def solve_wedce_bst(inst: ProblemInstance) -> SolveReport:
    """Five-step branching for WEDCE with ops within {vdel, edel}."""
    if inst.kind != WEDCE:
        raise ValueError("solve_wedce_bst expects a WEDCE instance")
    return _search(inst, _Wedce(inst.constraints))


# -- WERE -------------------------------------------------------------------


class _Were(_Strategy):
    """Vertices whose weighted degree sits below their entire delta list
    are doomed (degrees cannot grow, so they can only be deleted); then the
    least violator — a degree violation if any, else an edge violating nu —
    drives the branch."""

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 3 * r + 6 if edel else r + 3

    def doomed(self, g: WeightedGraph, wd: Dict):
        return next(
            (v for v in g.vertices() if wd[v] < min(self.cs.delta_of_vertex(v))),
            None,
        )

    def violation(self, g: WeightedGraph, wd: Dict):
        """``(v,)`` for the least degree violator, else ``(a, b)`` for the
        least edge violating nu, else None."""
        cs = self.cs
        for v in g.vertices():
            if wd[v] not in cs.delta_of_vertex(v):
                return (v,)
        for (a, b) in g.edges():
            if len(g.neighbors(a) & g.neighbors(b)) not in cs.nu_of(a, b):
                return (a, b)
        return None

    def children(self, g: WeightedGraph, wd: Dict, bad) -> List[Tuple[str, object]]:
        out: List[Tuple[str, object]] = []
        if len(bad) == 1:
            (v,) = bad
            t = _max_allowed_at_most(self.cs.delta_of_vertex(v), wd[v])
            # t exists: degrees below the whole list were deleted as doomed
            out.append((VDEL, v))
            guarantee = 0
            for x in sorted(g.neighbors(v)):
                if guarantee >= t + 1:
                    break
                out += [(VDEL, x), (_REDUCE, edge_key(v, x))]
                guarantee += g.edge_weight(v, x)
            return out
        a, b = bad
        common = g.neighbors(a) & g.neighbors(b)
        t = _max_allowed_at_most(self.cs.nu_of(a, b), len(common))
        out += [(VDEL, a), (VDEL, b), (EDEL, edge_key(a, b))]
        if t is not None:
            # common counts are unweighted, so each survivor counts one:
            # keeping t+1 of them pins the count above every target
            for x in sorted(common)[: t + 1]:
                out += [(VDEL, x), (EDEL, edge_key(x, a)), (EDEL, edge_key(x, b))]
        return out


def solve_were_bst(inst: ProblemInstance) -> SolveReport:
    """Branching solver for WERE with ops within {vdel, edel}."""
    if inst.kind != WERE:
        raise ValueError("solve_were_bst expects a WERE instance")
    return _search(inst, _Were(inst.constraints))


# -- WSRE: kernel + exhaustive phase ----------------------------------------


def solve_wsre(inst: ProblemInstance) -> SolveReport:
    """Kernelize, solve the kernel exhaustively, lift the witness when the
    trace used only deletions (rules 1 and 2); structural rewrites keep the
    answer but drop the witness."""
    if inst.kind != WSRE:
        raise ValueError("solve_wsre expects a WSRE instance")
    if VDEL not in inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError("solve_wsre needs vdel in ops and ops within {vdel, edel}")
    reduced, trace = kernelize(inst)
    if reduced.graph.n > ORACLE_MAX_VERTICES or reduced.k > ORACLE_MAX_BUDGET:
        raise KernelTooLargeError(
            f"kernel too large for exact phase: n={reduced.graph.n}, "
            f"k={reduced.k} (guaranteed bound "
            f"{kernel_bound(inst.kind, inst.ops, max(inst.k, 0), inst.constraints.r)})"
        )
    res = brute_force_solve(reduced)
    if not res.answer:
        return SolveReport(False, None, 0, None)
    liftable = all(s.rule in ("rr1", "rr2") for s in trace.steps)
    witness = None
    if liftable:
        extra = tuple(
            (VDEL, s.affected[0]) for s in trace.steps if s.rule == "rr1"
        )
        witness = EditScript.build(
            inst.graph, canonical_steps(extra + res.witness.steps)
        )
    return SolveReport(True, witness, 0, None)


# -- dispatch ---------------------------------------------------------------


def solve(inst: ProblemInstance) -> SolveReport:
    """Best available solver for the instance; exhaustive search where no
    dedicated algorithm exists (vertex-degree lists, or any ops with eadd)."""
    in_del_ops = inst.ops <= {VDEL, EDEL}
    if inst.kind == WEDCE and in_del_ops:
        return solve_wedce_bst(inst)
    if inst.kind == WERE and in_del_ops:
        return solve_were_bst(inst)
    if inst.kind == WSRE and VDEL in inst.ops and in_del_ops:
        if star_violation(inst) is None:
            return solve_wsre(inst)
    res = brute_force_solve(inst)
    return SolveReport(res.answer, res.witness, 0, None)
