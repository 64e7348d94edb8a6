"""Bounded-search-tree solvers with node accounting.

One engine, ``_search``, decides every instance whose ops are within
{vdel, edel}; ``solve`` runs the exhaustive oracle only for ops with eadd.
A node accepts when the budget is non-negative and every constraint holds,
rejects when the budget is exhausted and a violation remains, and otherwise
branches on a small hitting set of every possible repair.  A kind adds a
strategy: where the first violation sits, its ordered list of repairs, and
the branching factor bounding that list, with both ops / with vdel only:
WDCE 2r+3 / r+2 on vertex degrees; WEDCE 2r+5 / r+3 on edge degrees; WERE
3r+6 / r+3, adding nu on edges; WSRE the same, adding xi on non-adjacent
pairs (beyond the paper).  The vertex kinds also name doomed vertices, which
every solution deletes; the engine deletes them before the node branches,
without counting a node.  Every branch deletes a vertex or a whole edge at
its full weight, as a solution does, so the deletions on the undo trail at
an accepting node are the witness: within budget, not always the cheapest.
Branch sets are chosen greedily so that if no branch element is deleted,
what survives around the violation pins its value above every reachable
target: the child count stays within the factor and the search complete.

A solve edits one working graph in place, built once from the input as
one map from each vertex to its neighbours' edge weights: each deletion
updates that map and the weighted degrees in O(deg) and pushes what it
removed onto the graph's one undo trail.  Each strategy keeps its
violations as sets that it updates from every deletion, reading its lists
straight from the constraint maps and pushing what it changed onto the
same trail, so a node costs what its edits touch rather than the whole
graph.  A node marks the trail's length before its children and pops back
to the mark after each one returns, which undoes the child's deletion, the
forced deletions below it and the set updates of all of them.

A child whose deletion spends the whole remaining budget is a leaf, and a
leaf accepts only if the deletion leaves no violation.  A deletion changes
measures only within its reach: N[x] for deleting vertex x, the two ends for
deleting an edge.  A violation with no end in the reach keeps its degree,
edge degree and common-neighbour count, so when the strategy holds one, the
leaf rejects: the engine counts it as a node and makes no edit.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from .graphs import WeightedGraph, edge_key
from .oracle import brute_force_solve
from .problems import (
    EDEL,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    EditScript,
    ProblemInstance,
    SolveReport,
    canonical_steps,
)


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
    """The one graph a search edits in place: vertex weights ``vw``,
    neighbour maps ``nbr`` (``{v: {neighbour: edge weight}}``, each edge
    entered at both ends) and weighted degrees ``wd``.  A deletion costs
    O(deg) and pushes its change onto ``trail``: ``(vdel, v, (weight,
    {neighbour: edge weight}))``, the dict popped from ``nbr``, or ``(edel,
    e, weight)``.  It then hands the change to ``update(self, change)``,
    which pushes ``(set, added, dropped)`` for each violation set it changes
    (see ``_sync``).  ``undo_to(mark)`` pops the trail back to length
    ``mark`` and restores what each entry changed, putting a deleted
    vertex's saved dict back.  ``touched``, ``gone`` and ``rewired`` say
    what a change did.  At construction ``update`` hears None: the whole
    graph is new."""

    __slots__ = ("vw", "nbr", "wd", "trail", "_update")

    def __init__(self, g: WeightedGraph, update: Callable):
        self.vw = dict(g.vertex_weights())
        self.nbr = nbr = {v: {} for v in self.vw}
        for (u, v), w in g.edge_weights().items():
            nbr[u][v] = nbr[v][u] = w
        self.wd = {v: sum(ns.values()) for v, ns in nbr.items()}
        self.trail: list = []
        self._update = update
        update(self, None)

    def touched(self, change: Optional[tuple]) -> Iterable:
        """The vertices whose weighted degree or presence ``change`` changed."""
        if change is None:
            return self.vw
        op, ref, saved = change
        return (ref, *saved[1]) if op == VDEL else ref

    def incident(self, touched: Iterable) -> set:
        """The edges with an endpoint among the present vertices of ``touched``."""
        nbr = self.nbr
        # edge_key inlined: this is the innermost loop of the search
        return {(x, y) if x <= y else (y, x)
                for x in touched if x in nbr for y in nbr[x]}

    def reach(self, op: str, ref):
        """The vertices whose measures deleting ``ref`` can change: the
        closed neighbourhood of a vertex, the ends of an edge."""
        return {ref, *self.nbr[ref]} if op == VDEL else ref

    def gone(self, change: Optional[tuple]) -> Iterable:
        """The edges ``change`` deleted."""
        if change is None:
            return ()
        op, ref, saved = change
        return [edge_key(ref, y) for y in saved[1]] if op == VDEL else (ref,)

    def rewired(self, change: Optional[tuple]) -> Iterable:
        """The present edges whose common-neighbour count ``change`` may
        have changed."""
        nbr = self.nbr
        if change is None:
            return {(a, b) for a in nbr for b in nbr[a] if a < b}
        op, ref, saved = change
        if op == VDEL:
            nbrs = saved[1]
            return {edge_key(a, b) for a in nbrs for b in nbr[a] if b in nbrs}
        u, v = ref
        return {edge_key(x, y) for y in nbr[u].keys() & nbr[v].keys() for x in ref}

    def apart(self, change: Optional[tuple]) -> set:
        """The present non-adjacent pairs whose common-neighbour count
        ``change`` may have changed, and the pair an edge deletion parts."""
        nbr = self.nbr
        if change is None:
            return {(a, b) for a in nbr for b in nbr if a < b and b not in nbr[a]}
        op, ref, saved = change
        if op == VDEL:
            nbrs = saved[1]
            return {(a, b) for a in nbrs for b in nbrs if a < b and b not in nbr[a]}
        u, v = ref
        return {edge_key(x, y) for x, o in ((u, v), (v, u))
                for y in nbr[o] if y not in nbr[x]} | {ref}

    def _push(self, change: tuple) -> None:
        self.trail.append(change)
        self._update(self, change)

    def delete_vertex(self, v) -> None:
        nbr, wd = self.nbr, self.wd
        lost = nbr.pop(v)
        for y, w in lost.items():
            del nbr[y][v]
            wd[y] -= w
        del wd[v]
        self._push((VDEL, v, (self.vw.pop(v), lost)))

    def delete_edge(self, e: tuple) -> None:
        u, v = e
        w = self.nbr[u].pop(v)
        del self.nbr[v][u]
        self.wd[u] -= w
        self.wd[v] -= w
        self._push((EDEL, e, w))

    def undo_to(self, mark: int) -> None:
        trail, nbr, wd = self.trail, self.nbr, self.wd
        while len(trail) > mark:
            head, ref, saved = trail.pop()
            if head == VDEL:
                self.vw[ref], lost = saved
                nbr[ref] = lost
                wd[ref] = sum(lost.values())
                for y, w in lost.items():
                    nbr[y][ref] = w
                    wd[y] += w
            elif head == EDEL:
                u, v = ref
                nbr[u][v] = nbr[v][u] = saved
                wd[u] += saved
                wd[v] += saved
            else:  # a violation set and what _sync added to and dropped from it
                head -= ref
                head |= saved


# -- the engine -------------------------------------------------------------


class _Strategy:
    """The per-kind part of the search.  Subclasses supply ``kind``;
    ``factor(r, edel)``, the most children a node can have;
    ``update(g, change)``, which brings the strategy's violation sets up to
    date with a change to the working graph ``g`` (None: the whole graph)
    through ``_sync``, on ``g.trail``; ``violation()``, the first violated
    constraint of the graph or None when all hold; ``children(g, bad)``,
    the ordered ``(op, ref)`` deletions that hit every way to fix ``bad``;
    and ``stranded(reach)``, whether some violation has no end in the
    vertex set ``reach`` and so outlives any deletion within it."""

    def __init__(self, cs):
        self.cs = cs

    def doomed(self):
        """The vertices that every solution deletes."""
        return ()


def _sync(s: set, scope: Iterable, bad: set, trail: list) -> None:
    """Make ``s`` hold exactly ``bad`` within ``scope``, a superset of
    ``bad``, and push what was added and dropped onto ``trail``."""
    dropped = s.intersection(scope) - bad
    added = bad - s
    if added or dropped:
        s -= dropped
        s |= added
        trail.append((s, added, dropped))


def _search(inst: ProblemInstance, cls: type) -> SolveReport:
    """Depth-first bounded search tree over deletions, driven by a strategy
    of class ``cls``; children are tried in the strategy's order, skipping
    those whose operation ``inst.ops`` does not allow."""
    if inst.kind != cls.kind:
        raise ValueError(f"{cls.kind} search tree given a {inst.kind} instance")
    if not inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError(f"{inst.kind} search tree covers non-empty ops "
                         "within {vdel, edel}")
    strategy = cls(inst.constraints)
    allow_v = VDEL in inst.ops
    allow_e = EDEL in inst.ops
    g = _WorkGraph(inst.graph, strategy.update)
    nodes = 0
    hit: Optional[tuple] = None

    def node(k: int):
        """Search from the current graph; the caller undoes what this node
        and its forced deletions leave on the trail.  It yields each child's
        budget after its deletion and is sent the child's result."""
        nonlocal nodes, hit
        nodes += 1
        if k < 0:
            return False
        while doomed := strategy.doomed():
            # a deletion leaves doomed vertices doomed: all of them must fit
            if not allow_v or sum(g.vw[v] for v in doomed) > k:
                return False
            v = min(doomed)
            k -= g.vw[v]
            g.delete_vertex(v)
        bad = strategy.violation()
        if bad is None:
            # the deletions on the trail are this node's path from the root
            hit = canonical_steps((op, ref) if op == VDEL else (op, *ref)
                                  for op, ref, _ in g.trail if op in (VDEL, EDEL))
            return True
        if k <= 0:
            return False
        mark = len(g.trail)
        for op, ref in strategy.children(g, bad):
            if not (allow_v if op == VDEL else allow_e):
                continue
            cost = g.vw[ref] if op == VDEL else g.nbr[ref[0]][ref[1]]
            if cost > k:
                continue
            if cost == k and strategy.stranded(g.reach(op, ref)):
                nodes += 1  # a leaf that rejects: see the module docstring
                continue
            (g.delete_vertex if op == VDEL else g.delete_edge)(ref)
            found = yield k - cost
            g.undo_to(mark)
            if found:
                return True
        return False

    # one loop drives a stack of nodes, so the depth is not Python's limit
    stack, answer = [node(inst.k)], None
    while stack:
        try:
            stack.append(node(stack[-1].send(answer)))
            answer = None
        except StopIteration as done:
            stack.pop()
            answer = done.value
    witness = EditScript.build(inst.graph, hit) if answer else None
    bound = tr(strategy.factor(inst.constraints.r, allow_e), max(inst.k, 0))
    return SolveReport(answer, witness, nodes, bound)


# -- WEDCE ------------------------------------------------------------------


class _Wedce(_Strategy):
    """Five-step branching on the least edge whose edge degree leaves its
    list: delete either endpoint, the edge, or one of the neighbours or
    whole edges around it, chosen so that if none of them goes, what
    survives pins the edge degree above its target."""

    kind = WEDCE

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

    def stranded(self, reach) -> bool:
        return any(u not in reach and v not in reach for u, v in self.off)

    def children(self, g: _WorkGraph, bad) -> List[Tuple[str, object]]:
        u, v = bad
        t = _max_allowed_at_most(self.cs.delta_e[bad], g.wd[u] + g.wd[v])
        out: List[Tuple[str, object]] = [(VDEL, u), (VDEL, v), (EDEL, bad)]
        if t is None:
            return out
        nbr_u, nbr_v = g.nbr[u], g.nbr[v]
        others = sorted((nbr_u.keys() | nbr_v.keys()) - {u, v})
        guarantee = 2 * nbr_u[v]
        m_sel: List = []
        chosen: List[tuple] = []
        for x in others:
            if guarantee >= t + 1:
                break
            # the heavier edge from x to uv, ties to the larger edge_key
            cands = [(nbr_u[x], edge_key(x, u))] if x in nbr_u else []
            if x in nbr_v:
                cands.append((nbr_v[x], edge_key(x, v)))
            w_best, e_best = max(cands)
            m_sel.append(x)
            chosen.append(e_best)
            guarantee += w_best
        if guarantee < t + 1:
            # small neighbourhood: branch on everything around uv
            m_sel = others
            chosen = sorted(edge_key(x, y) for x in others
                            for y, ns in ((u, nbr_u), (v, nbr_v)) if x in ns)
        return out + [(VDEL, x) for x in m_sel] + [(EDEL, e) for e in chosen]


def solve_wedce_bst(inst: ProblemInstance) -> SolveReport:
    """Five-step branching for WEDCE with ops within {vdel, edel}."""
    return _search(inst, _Wedce)


# -- WDCE, WERE and WSRE -----------------------------------------------------


class _Wdce(_Strategy):
    """A vertex whose weighted degree sits below its whole delta list is
    doomed (degrees cannot grow); else the least degree violator branches on
    deleting itself, or a neighbour or the whole edge to it, over neighbours
    enough to pin its degree above its target t <= r: 1 + 2(t+1) children."""

    kind = WDCE

    def __init__(self, cs):
        super().__init__(cs)
        self.low: set = set()      # doomed: degree below the whole list
        self.off: set = set()      # degree outside the list

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 2 * r + 3 if edel else r + 2

    def update(self, g: _WorkGraph, change) -> None:
        delta, wd = self.cs.delta_v, g.wd
        touched = g.touched(change)
        here = [(v, delta[v]) for v in touched if v in wd]
        _sync(self.low, touched, {v for v, dv in here if wd[v] < min(dv)}, g.trail)
        _sync(self.off, touched, {v for v, dv in here if wd[v] not in dv}, g.trail)

    def doomed(self):
        return self.low

    def violation(self):
        return (min(self.off),) if self.off else None

    def stranded(self, reach) -> bool:
        # doomed vertices are degree violators too, so ``off`` holds them
        return any(v not in reach for v in self.off)

    def children(self, g: _WorkGraph, bad) -> List[Tuple[str, object]]:
        (v,) = bad
        t = _max_allowed_at_most(self.cs.delta_v[v], g.wd[v])
        # t exists: degrees below the whole list were deleted as doomed
        out: List[Tuple[str, object]] = [(VDEL, v)]
        guarantee = 0
        nbr_v = g.nbr[v]
        for x in sorted(nbr_v):
            if guarantee >= t + 1:
                break
            out += [(VDEL, x), (EDEL, edge_key(v, x))]
            guarantee += nbr_v[x]
        return out


def solve_wdce_bst(inst: ProblemInstance) -> SolveReport:
    """Degree branching for WDCE with ops within {vdel, edel}."""
    return _search(inst, _Wdce)


class _Were(_Wdce):
    """WDCE's rules; with no degree violation left, the least edge violating
    nu branches on deleting either end, the edge, or one of t+1 common
    neighbours or an edge to one: 3 + 3(t+1) children for t <= lambda <= r."""

    kind = WERE

    def __init__(self, cs):
        super().__init__(cs)
        self.bad_pairs: set = set()   # edges leaving nu; WSRE adds non-edges leaving xi

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 3 * r + 6 if edel else r + 3

    def update(self, g: _WorkGraph, change) -> None:
        super().update(g, change)
        nbr, nu, default = g.nbr, self.cs.nu.get, self.cs.nu_default
        near = g.rewired(change)
        bad = {(a, b) for (a, b) in near
               if len(nbr[a].keys() & nbr[b].keys()) not in (nu((a, b)) or default)}
        _sync(self.bad_pairs, {*near, *g.gone(change)}, bad, g.trail)

    def violation(self):
        """As WDCE's, else the least pair in ``bad_pairs``."""
        return super().violation() or min(self.bad_pairs, default=None)

    def stranded(self, reach) -> bool:
        return super().stranded(reach) or any(
            a not in reach and b not in reach for a, b in self.bad_pairs)

    def children(self, g: _WorkGraph, bad) -> List[Tuple[str, object]]:
        if len(bad) == 1:
            return super().children(g, bad)
        a, b = bad
        cs = self.cs
        out: List[Tuple[str, object]] = [(VDEL, a), (VDEL, b)]
        if b in g.nbr[a]:
            out.append((EDEL, bad))
            allowed = cs.nu.get(bad) or cs.nu_default
        else:  # a pair violating xi (WSRE) branches alike, with no edge to delete
            allowed = cs.xi.get(bad) or cs.xi_default
        common = g.nbr[a].keys() & g.nbr[b].keys()
        t = _max_allowed_at_most(allowed, len(common))
        if t is not None:
            # common counts are unweighted, so each survivor counts one:
            # keeping t+1 of them pins the count above every target
            for x in sorted(common)[: t + 1]:
                out += [(VDEL, x), (EDEL, edge_key(x, a)), (EDEL, edge_key(x, b))]
        return out


def solve_were_bst(inst: ProblemInstance) -> SolveReport:
    """Branching solver for WERE with ops within {vdel, edel}."""
    return _search(inst, _Were)


class _Wsre(_Were):
    """WERE's rules; a non-adjacent pair whose common count leaves xi joins
    ``bad_pairs`` and branches like a nu edge minus the edge: 2 + 3(t+1) <=
    3r+5 children for t <= mu <= r, 2 + (t+1) <= r+3 with vdel only."""

    kind = WSRE

    def update(self, g: _WorkGraph, change) -> None:
        super().update(g, change)
        nbr, xi, default = g.nbr, self.cs.xi.get, self.cs.xi_default
        near = g.apart(change)
        bad = {(a, b) for (a, b) in near
               if len(nbr[a].keys() & nbr[b].keys()) not in (xi((a, b)) or default)}
        if change is not None and change[0] == VDEL:
            near |= {p for p in self.bad_pairs if change[1] in p}
        _sync(self.bad_pairs, near, bad, g.trail)


def solve_wsre(inst: ProblemInstance) -> SolveReport:
    """Branching solver for WSRE with ops within {vdel, edel}."""
    return _search(inst, _Wsre)


# -- dispatch ---------------------------------------------------------------


def solve(inst: ProblemInstance) -> SolveReport:
    """Ops within {vdel, edel}: the search tree of ``inst``'s kind, with its
    nodes and ``tr`` ceiling, factor 2r+3 (WDCE), 2r+5 (WEDCE) or 3r+6 (WERE,
    WSRE), r+2 or r+3 with vdel only.  Ops with eadd: the exhaustive oracle,
    with no nodes and no bound."""
    if inst.ops <= {VDEL, EDEL}:
        # looked up per call, so a rebound module global is the one that runs
        entry = {WDCE: solve_wdce_bst, WEDCE: solve_wedce_bst,
                 WERE: solve_were_bst, WSRE: solve_wsre}
        return entry[inst.kind](inst)
    return brute_force_solve(inst)
