"""Bounded-search-tree solvers with node accounting.

One engine, ``_search``, runs the search tree for every kind it covers:
accept when the budget is non-negative and every constraint holds, reject
when the budget is exhausted and a violation remains, otherwise branch on
a small hitting set of every possible repair.  A kind contributes only a
strategy: where the first violation sits, its ordered list of repairs,
and the branching factor that bounds that list (2r+5 for WEDCE, 3r+6 for
WERE, r+3 for either with vertex deletion only).  WERE's strategy also
names vertices every solution must delete; the engine removes them before
the node branches, without counting a node.  Every branch deletes a vertex
or a whole edge at its full weight, as a solution does, so the edits on
the path to an accepting node are the witness.  Branch sets are chosen
greedily so that if no branch element is deleted, the surviving weight
around the violation pins its value above every reachable target — that
keeps the child count within the branching factor while staying complete.

A solve edits one working graph in place, built once from the input: each
deletion updates weights, adjacency and weighted degrees in O(deg) and
pushes what it removed onto the graph's one undo trail.  Each strategy
keeps its violations as sets that it updates from every deletion, pushing
what it changed onto the same trail, so a node costs what its edits touch
rather than the whole graph.  A node marks the trail's length before its
children and pops back to the mark after each one returns, which undoes
the child's deletion, the forced deletions below it and the set updates of
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

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


def _max_allowed_at_most(allowed: frozenset, d: int) -> Optional[int]:
    below = [s for s in allowed if s <= d]
    return max(below) if below else None


# -- the working graph --------------------------------------------------------


class _WorkGraph:
    """The one graph a search edits in place: vertex weights ``vw``, edge
    weights ``ew`` (keyed by ``edge_key``), adjacency sets ``adj`` and
    weighted degrees ``wd``.  A deletion costs O(deg) and pushes its change
    onto ``trail``: ``(vdel, v, (weight, {neighbour: edge weight}))`` or
    ``(edel, e, weight)``.  It then hands the change to ``update(self,
    change)``, which pushes ``(set, added, dropped)`` for each violation
    set it changes (see ``_sync``).  ``undo_to(mark)`` pops the trail back
    to length ``mark`` and restores what each entry changed.  ``touched``,
    ``gone`` and ``rewired`` say what a change did.  At construction
    ``update`` hears None: the whole graph is new."""

    __slots__ = ("vw", "ew", "adj", "wd", "trail", "_update")

    def __init__(self, g: WeightedGraph, update: Callable):
        self.vw = dict(g.vertex_weights())
        self.ew = dict(g.edge_weights())
        self.adj = {v: set(g.neighbors(v)) for v in self.vw}
        self.wd = dict.fromkeys(self.vw, 0)
        for (u, v), w in self.ew.items():
            self.wd[u] += w
            self.wd[v] += w
        self.trail: list = []
        self._update = update
        update(self, None)

    def weight(self, u, v) -> int:
        return self.ew[edge_key(u, v)]

    def touched(self, change: Optional[tuple]) -> Iterable:
        """The vertices whose weighted degree or presence ``change`` changed."""
        if change is None:
            return self.vw
        op, ref, saved = change
        return (ref, *saved[1]) if op == VDEL else ref

    def incident(self, touched: Iterable) -> set:
        """The edges with an endpoint among the present vertices of ``touched``."""
        adj = self.adj
        # edge_key inlined: this is the innermost loop of the search
        return {(x, y) if x <= y else (y, x)
                for x in touched if x in adj for y in adj[x]}

    def gone(self, change: Optional[tuple]) -> Iterable:
        """The edges ``change`` deleted."""
        if change is None:
            return ()
        op, ref, saved = change
        return [edge_key(ref, y) for y in saved[1]] if op == VDEL else (ref,)

    def rewired(self, change: Optional[tuple]) -> Iterable:
        """The present edges whose common-neighbour count ``change`` may
        have changed."""
        if change is None:
            return self.ew
        op, ref, saved = change
        adj = self.adj
        if op == VDEL:
            nbrs = saved[1]
            return {edge_key(a, b) for a in nbrs for b in adj[a] if b in nbrs}
        u, v = ref
        return {edge_key(x, y) for y in adj[u] & adj[v] for x in ref}

    def _set_weight(self, e: tuple, w: int) -> int:
        """Give edge ``e`` weight ``w``, where 0 means absent; the old weight."""
        u, v = e
        old = self.ew.pop(e, 0)
        if w:
            self.ew[e] = w
            self.adj[u].add(v)
            self.adj[v].add(u)
        else:
            self.adj[u].discard(v)
            self.adj[v].discard(u)
        self.wd[u] += w - old
        self.wd[v] += w - old
        return old

    def _push(self, change: tuple) -> None:
        self.trail.append(change)
        self._update(self, change)

    def delete_vertex(self, v) -> None:
        lost = {y: self._set_weight(edge_key(v, y), 0) for y in list(self.adj[v])}
        del self.adj[v], self.wd[v]
        self._push((VDEL, v, (self.vw.pop(v), lost)))

    def delete_edge(self, e: tuple) -> None:
        self._push((EDEL, e, self._set_weight(e, 0)))

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            head, ref, saved = trail.pop()
            if head == VDEL:
                self.vw[ref], lost = saved
                self.adj[ref] = set()
                self.wd[ref] = 0
                for y, w in lost.items():
                    self._set_weight(edge_key(ref, y), w)
            elif head == EDEL:
                self._set_weight(ref, saved)
            else:  # a violation set and what _sync added to and dropped from it
                head -= ref
                head |= saved


# -- the engine -------------------------------------------------------------


def _edit(op: str, ref, g: _WorkGraph, k: int, steps: tuple):
    """Delete ``ref`` from ``g`` in place and return ``(k, steps)`` for the
    new state, or None, leaving ``g`` as it was, when the deletion costs
    more than ``k``.  ``ref`` is a vertex for ``vdel`` and an edge key for
    ``edel``."""
    if op == VDEL:
        cost = g.vw[ref]
        if cost > k:
            return None
        g.delete_vertex(ref)
        return k - cost, steps + ((VDEL, ref),)
    w = g.ew[ref]
    if w > k:
        return None
    g.delete_edge(ref)
    return k - w, steps + ((EDEL,) + ref,)


class _Strategy:
    """The per-kind part of the search.  Subclasses supply
    ``factor(r, edel)``, the most children a node can have;
    ``update(g, change)``, which brings the strategy's violation sets up to
    date with a change to the working graph ``g`` (None: the whole graph)
    through ``_sync``, on ``g.trail``; ``violation()``, the first violated
    constraint of the graph or None when all hold; and ``children(g,
    bad)``, the ordered ``(op, ref)`` deletions that hit every way to fix
    ``bad``."""

    def __init__(self, cs):
        self.cs = cs

    def doomed(self):
        """A vertex that every solution deletes, or None."""
        return None


def _sync(s: set, scope: Iterable, bad: set, trail: list) -> None:
    """Make ``s`` hold exactly ``bad`` within ``scope``, a superset of
    ``bad``, and push what was added and dropped onto ``trail``."""
    dropped = s.intersection(scope) - bad
    added = bad - s
    if added or dropped:
        s -= dropped
        s |= added
        trail.append((s, added, dropped))


def _search(inst: ProblemInstance, strategy: _Strategy) -> SolveReport:
    """Depth-first bounded search tree over deletions, driven by
    ``strategy``; children are tried in the strategy's order, skipping
    those whose operation ``inst.ops`` does not allow."""
    if not inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError(f"{inst.kind} search tree covers non-empty ops "
                         "within {vdel, edel}")
    allow_v = VDEL in inst.ops
    allow_e = EDEL in inst.ops
    g = _WorkGraph(inst.graph, strategy.update)
    nodes = 0
    hit: Optional[tuple] = None

    def recurse(k: int, steps: tuple) -> bool:
        """Search from the current graph; the caller undoes what this node
        and its forced deletions leave on the trail."""
        nonlocal nodes, hit
        nodes += 1
        if k < 0:
            return False
        while (x := strategy.doomed()) is not None:
            state = _edit(VDEL, x, g, k, steps) if allow_v else None
            if state is None:
                return False
            k, steps = state
        bad = strategy.violation()
        if bad is None:
            hit = steps
            return True
        if k <= 0:
            return False
        mark = len(g.trail)
        for op, ref in strategy.children(g, bad):
            if not (allow_v if op == VDEL else allow_e):
                continue
            state = _edit(op, ref, g, k, steps)
            if state is not None:
                found = recurse(*state)
                g.undo_to(mark)
                if found:
                    return True
        return False

    answer = recurse(inst.k, ())
    witness = EditScript.build(inst.graph, canonical_steps(hit)) if answer else None
    bound = tr(strategy.factor(inst.constraints.r, allow_e), max(inst.k, 0))
    return SolveReport(answer, witness, nodes, bound)


# -- WEDCE ------------------------------------------------------------------


class _Wedce(_Strategy):
    """Five-step branching on the least edge whose edge degree leaves its
    list: delete either endpoint, the edge, or one of the neighbours or
    whole edges around it, chosen so that if none of them goes, what
    survives pins the edge degree above its target."""

    def __init__(self, cs):
        super().__init__(cs)
        self.off: set = set()  # edges whose edge degree leaves the list

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 2 * r + 5 if edel else r + 3

    def update(self, g: _WorkGraph, change) -> None:
        wd, delta = g.wd, self.cs.delta_e
        near = g.incident(g.touched(change))
        bad = {e for e in near if wd[e[0]] + wd[e[1]] not in delta[e]}
        _sync(self.off, near.union(g.gone(change)), bad, g.trail)

    def violation(self):
        return min(self.off, default=None)

    def children(self, g: _WorkGraph, bad) -> List[Tuple[str, object]]:
        u, v = bad
        t = _max_allowed_at_most(self.cs.delta_of_edge(u, v), g.wd[u] + g.wd[v])
        out: List[Tuple[str, object]] = [(VDEL, u), (VDEL, v), (EDEL, bad)]
        if t is None:
            return out
        others = sorted((g.adj[u] | g.adj[v]) - {u, v})
        guarantee = 2 * g.weight(u, v)
        m_sel: List = []
        chosen: List[tuple] = []
        for x in others:
            if guarantee >= t + 1:
                break
            cands = []
            if x in g.adj[u]:
                cands.append((g.weight(x, u), edge_key(x, u)))
            if x in g.adj[v]:
                cands.append((g.weight(x, v), edge_key(x, v)))
            w_best, e_best = max(cands, key=lambda p: (p[0], p[1]))
            m_sel.append(x)
            chosen.append(e_best)
            guarantee += w_best
        if guarantee < t + 1:
            # small neighbourhood: branch on everything around uv
            m_sel = others
            chosen = sorted(
                e for x in others for e in (edge_key(x, u), edge_key(x, v))
                if e in g.ew
            )
        return out + [(VDEL, x) for x in m_sel] + [(EDEL, e) for e in chosen]


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
    drives the branch.  A degree violator branches on deleting itself, or
    a neighbour or the whole edge to it, over neighbours enough to pin its
    degree above its target; an edge violating nu on deleting either end,
    the edge, or one of t+1 common neighbours or an edge to one."""

    def __init__(self, cs):
        super().__init__(cs)
        self.low: set = set()      # doomed: degree below the whole list
        self.off: set = set()      # degree outside the list
        self.bad_nu: set = set()   # edges whose common count leaves nu

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 3 * r + 6 if edel else r + 3

    def update(self, g: _WorkGraph, change) -> None:
        cs, wd, adj = self.cs, g.wd, g.adj
        touched = g.touched(change)
        here = [(v, cs.delta_of_vertex(v)) for v in touched if v in wd]
        _sync(self.low, touched, {v for v, dv in here if wd[v] < min(dv)}, g.trail)
        _sync(self.off, touched, {v for v, dv in here if wd[v] not in dv}, g.trail)
        near = g.rewired(change)
        bad = {(a, b) for (a, b) in near if len(adj[a] & adj[b]) not in cs.nu_of(a, b)}
        _sync(self.bad_nu, {*near, *g.gone(change)}, bad, g.trail)

    def doomed(self):
        return min(self.low, default=None)

    def violation(self):
        """``(v,)`` for the least degree violator, else ``(a, b)`` for the
        least edge violating nu, else None."""
        if self.off:
            return (min(self.off),)
        return min(self.bad_nu, default=None)

    def children(self, g: _WorkGraph, bad) -> List[Tuple[str, object]]:
        out: List[Tuple[str, object]] = []
        if len(bad) == 1:
            (v,) = bad
            t = _max_allowed_at_most(self.cs.delta_of_vertex(v), g.wd[v])
            # t exists: degrees below the whole list were deleted as doomed
            out.append((VDEL, v))
            guarantee = 0
            for x in sorted(g.adj[v]):
                if guarantee >= t + 1:
                    break
                out += [(VDEL, x), (EDEL, edge_key(v, x))]
                guarantee += g.weight(v, x)
            return out
        a, b = bad
        common = g.adj[a] & g.adj[b]
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
