"""Bounded-search-tree solvers with node accounting.

One engine, ``_search``, decides every instance whose ops are within
{vdel, edel}; ``solve`` runs the exhaustive oracle only for ops with eadd.
A node accepts when the budget is non-negative and every constraint holds,
rejects when the budget is exhausted and a violation remains, and otherwise
branches on a small hitting set of every possible repair.  A strategy,
handed its kind, keeps the current violations in the three sets of
``_Strategy``, lists the ordered repairs of one violation, and gives the
branching factor bounding that list, with both ops / with vdel only: WEDCE
2r+5 / r+3 on edge degrees.  One strategy serves the three degree kinds,
reading nu and xi off ``CONSULTED``: WDCE 2r+3 / r+2 on vertex degrees;
WERE and WSRE 3r+6 / r+3, adding one common-count rule: nu on edges, and
for WSRE xi on non-adjacent pairs (beyond the paper).  The engine deletes
the doomed vertices, which every solution deletes, without counting a node,
then branches on the first violation: the least bad vertex, else the least
bad pair.  Every branch deletes a vertex or a whole edge at its full weight,
as a solution does, so the deletions on the undo trail at an accepting node
are the witness, and the budget its path spent is the witness's cost:
within budget, not always the cheapest.
Branch sets are chosen greedily so that if no branch element is deleted,
what survives around the violation pins its value above every reachable
target: the child count stays within the factor and the search complete.

A solve edits one working graph in place, built once from the input as
one map from each vertex to its neighbours' edge weights: each deletion
updates that map and the weighted degrees in O(deg) and pushes what it
removed onto the graph's one undo trail.  Each strategy builds its
violation sets in one scan of the new graph, and the engine hands it every
deletion to update them from, reading its lists straight from the
constraint maps, so a node costs what its edits touch rather than the whole
graph.  Every update is one pass that judges each measure the deletion
moved once, against the sets as they were, and records the members whose
verdict changed through ``_flip``, onto the same trail: WEDCE the edges at
each end whose weighted degree moved, WDCE those ends themselves, and the
common-count rule the pairs whose count or adjacency the deletion changed.
A node marks the trail's length before its children and pops back to the
mark after each one returns, which undoes the child's deletion, the forced
deletions below it and the set updates of all of them.

A child whose deletion spends the whole remaining budget is a leaf, and a
leaf accepts only if the deletion leaves no violation.  A deletion changes
measures only within its reach: N[x] for deleting vertex x, the two ends for
deleting an edge.  A violation with no end in the reach keeps its degree,
edge degree and common-neighbour count, so when the strategy holds one, the
leaf rejects: the engine counts it as a node and makes no edit.  The
reported ceiling is ``tr(b, min(k, n + m))``: each level deletes one of the
input's n + m elements, so no search is deeper than that.  An empty graph,
searched in one node whatever the budget, keeps the paper's ``tr(b, k)``,
which the acceptance gate pins for WEDCE graphs with no edges.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .graphs import WeightedGraph, edge_key
from .oracle import brute_force_solve
from .problems import (
    CONSULTED,
    EDEL,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    EditScript,
    ProblemInstance,
    SolveReport,
    _NU,
    _XI,
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
    O(deg), pushes its change onto ``trail`` and returns it: ``(vdel, v,
    (weight, {neighbour: edge weight}))``, the dict popped from ``nbr``, or
    ``(edel, e, weight)``.  The search hands that change to its strategy's
    ``update``, whose ``_flip`` pushes ``(set, added, dropped)`` for each
    violation set it changes, ``added`` and ``dropped`` disjoint.
    ``undo_to(mark)`` pops the trail back to length ``mark`` and restores
    what each entry changed, putting a deleted vertex's saved dict back."""

    __slots__ = ("vw", "nbr", "wd", "trail")

    def __init__(self, g: WeightedGraph):
        self.vw = dict(g.vertex_weights())
        self.nbr = nbr = {v: {} for v in self.vw}
        for (u, v), w in g.edge_weights().items():
            nbr[u][v] = nbr[v][u] = w
        self.wd = {v: sum(ns.values()) for v, ns in nbr.items()}
        self.trail: list = []

    def reach(self, op: str, ref):
        """The vertices whose measures deleting ``ref`` can change: the
        closed neighbourhood of a vertex, the ends of an edge."""
        return {ref, *self.nbr[ref]} if op == VDEL else ref

    def delete_vertex(self, v) -> tuple:
        nbr, wd = self.nbr, self.wd
        lost = nbr.pop(v)
        for y, w in lost.items():
            del nbr[y][v]
            wd[y] -= w
        del wd[v]
        change = (VDEL, v, (self.vw.pop(v), lost))
        self.trail.append(change)
        return change

    def delete_edge(self, e: tuple) -> tuple:
        u, v = e
        w = self.nbr[u].pop(v)
        del self.nbr[v][u]
        self.wd[u] -= w
        self.wd[v] -= w
        change = (EDEL, e, w)
        self.trail.append(change)
        return change

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
            else:  # a violation set and what an update added to and dropped from it
                head -= ref
                head |= saved


# -- the engine -------------------------------------------------------------


class _Strategy:
    """The per-kind part of the search, built from a constraint set and the
    kind of the instance searched: ``_Wedce`` serves WEDCE, ``_Degrees``
    WDCE, WERE and WSRE.  ``__init__`` creates the three violation sets,
    empty, and decides ``reads_nu`` and ``reads_xi``: does the kind's
    ``CONSULTED`` row hold nu, and xi?  The sets are ``doomed``, the
    vertices whose degree is below their whole list, which every solution
    deletes; ``bad_vertices``, the vertices whose degree leaves its list,
    doomed ones included; ``bad_pairs``, WEDCE's edges whose edge degree
    leaves its list, or the pairs whose common count leaves nu or xi.
    WEDCE fills only pairs, WDCE (no nu) only vertices.
    ``violation()`` and ``stranded(reach)`` read the sets for every kind.
    Subclasses supply ``factor(r, edel)``, the most children a node can
    have; ``start(g, edges)``, which fills the sets its kind reads from the
    new working graph ``g`` and the input's edge keys ``edges``;
    ``update(g, change)``, which brings them up to date with a deletion
    from ``g`` in one pass over what it moved, recording each set's change
    through ``_flip``; and ``children(g, bad)``, the ordered ``(op, ref)``
    deletions that hit every way to fix ``bad``."""

    def __init__(self, cs, kind: str):
        self.cs = cs
        self.doomed, self.bad_vertices, self.bad_pairs = set(), set(), set()
        consulted = CONSULTED[kind]
        self.reads_nu, self.reads_xi = _NU in consulted, _XI in consulted

    def violation(self):
        """The first violated constraint: the least bad vertex as ``(v,)``,
        else the least bad pair, else None when all hold."""
        if self.bad_vertices:
            return (min(self.bad_vertices),)
        if self.bad_pairs:
            return min(self.bad_pairs)
        return None

    def stranded(self, reach) -> bool:
        """Does some violation have no end in the vertex set ``reach``, and
        so outlive any deletion within it?"""
        vs, pairs = self.bad_vertices, self.bad_pairs
        # an empty set costs a truth test, not a generator
        if vs and not vs.issubset(reach):
            return True
        return any(a not in reach and b not in reach for a, b in pairs) if pairs else False


def _flip(s: set, added: set, dropped: set, trail: list) -> None:
    """Add ``added`` to ``s`` and take out ``dropped``, disjoint sets found
    against ``s`` as it was, and push the change onto ``trail``."""
    if added or dropped:
        s -= dropped
        s |= added
        trail.append((s, added, dropped))


def _search(inst: ProblemInstance, kind: str, cls: type) -> SolveReport:
    """Depth-first bounded search tree over deletions for a ``kind``
    instance, driven by a strategy of class ``cls``; children are tried in
    the strategy's order, skipping those whose operation ``inst.ops`` does
    not allow."""
    if inst.kind != kind:
        raise ValueError(f"{kind} search tree given a {inst.kind} instance")
    if not inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError(f"{inst.kind} search tree covers non-empty ops "
                         "within {vdel, edel}")
    strategy = cls(inst.constraints, kind)
    allow_v = VDEL in inst.ops
    allow_e = EDEL in inst.ops
    g = _WorkGraph(inst.graph)
    strategy.start(g, inst.graph.edge_weights().keys())
    # start has built the sets, and each later change edits them in place
    update, doomed = strategy.update, strategy.doomed
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
        while doomed:
            # a deletion leaves doomed vertices doomed: all of them must fit
            if not allow_v or sum(g.vw[v] for v in doomed) > k:
                return False
            v = min(doomed)
            k -= g.vw[v]
            update(g, g.delete_vertex(v))
        bad = strategy.violation()
        if bad is None:
            # the deletions on the trail are this node's path from the root,
            # and the budget they spent is their cost
            steps = ((op, ref) if op == VDEL else (op, *ref)
                     for op, ref, _ in g.trail if op in (VDEL, EDEL))
            hit = EditScript(canonical_steps(steps), inst.k - k)
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
            update(g, (g.delete_vertex if op == VDEL else g.delete_edge)(ref))
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
    depth, size = max(inst.k, 0), inst.graph.n + inst.graph.m
    # the empty graph keeps tr(b, k): see the module docstring
    bound = tr(strategy.factor(inst.constraints.r, allow_e), min(depth, size or depth))
    return SolveReport(answer, hit, nodes, bound)


# -- WEDCE ------------------------------------------------------------------


class _Wedce(_Strategy):
    """Five-step branching on the least edge whose edge degree leaves its
    list: delete either endpoint, the edge, or one of the neighbours or
    whole edges around it, chosen so that if none of them goes, what
    survives pins the edge degree above its target.  ``update`` is one
    pass: it drops the deleted edges from ``bad_pairs``, judges every edge
    at a present end whose weighted degree moved against the set as it was,
    and records the change through ``_flip``."""

    @staticmethod
    def factor(r: int, edel: bool) -> int:
        return 2 * r + 5 if edel else r + 3

    def start(self, g: _WorkGraph, edges: Iterable) -> None:
        wd, delta = g.wd, self.cs.delta_e
        # edges whose edge degree leaves the list
        self.bad_pairs = {e for e in edges if wd[e[0]] + wd[e[1]] not in delta[e]}

    def update(self, g: _WorkGraph, change) -> None:
        # each edge is judged against the set as it was, so added and
        # dropped stay disjoint; one between two moved ends, twice alike
        wd, nbr, delta, bad = g.wd, g.nbr, self.cs.delta_e, self.bad_pairs
        op, ref, saved = change
        if op == VDEL:
            ends = saved[1]
            dropped = bad.intersection([(ref, y) if ref <= y else (y, ref) for y in ends])
        else:
            ends = ref
            dropped = {ref} if ref in bad else set()
        added = set()
        for x in ends:
            dx = wd[x]
            for y in nbr[x]:
                # edge_key inlined: this is the innermost loop of the search
                e = (x, y) if x <= y else (y, x)
                if dx + wd[y] in delta[e]:
                    if e in bad:
                        dropped.add(e)
                elif e not in bad:
                    added.add(e)
        _flip(bad, added, dropped, g.trail)

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
    return _search(inst, WEDCE, _Wedce)


# -- WDCE, WERE and WSRE -----------------------------------------------------


class _Degrees(_Strategy):
    """One strategy for WDCE, WERE and WSRE: the degree rule, plus the
    common-count rule under ``reads_nu``.  A vertex whose weighted degree
    sits below its whole delta list is doomed (degrees cannot grow); else
    the least degree violator branches on deleting itself, or a neighbour or
    the whole edge to it, over neighbours enough to pin its degree above its
    target t <= r: 1 + 2(t+1) <= 2r+3 children, 1 + (t+1) <= r+2 with vdel
    only.  With no degree violation left, the least pair in ``bad_pairs``
    branches: an edge whose common count leaves nu on deleting either end,
    the edge, or one of t+1 common neighbours or an edge to one, 3 + 3(t+1)
    <= 3r+6 children for t <= lambda <= r; a non-adjacent pair leaving xi
    (WSRE) alike, minus the edge, 2 + 3(t+1) <= 3r+5 children for t <= mu
    <= r.  With vdel only, 2 + (t+1) <= r+3 either way.  ``start`` fills
    ``doomed`` and ``bad_vertices``, then under ``reads_nu`` ``bad_pairs``
    from the edges, or from every pair under ``reads_xi``.  ``update`` is
    one pass: a deleted vertex leaves every set, and each present end whose
    weighted degree moved is judged once against its list.  Under
    ``reads_nu`` it then re-judges only the pairs whose count or adjacency
    changed.  A deleted vertex's neighbourhood: the edges among it on nu,
    for WSRE the other pairs on xi.  A deleted edge uv: WERE drops uv and
    judges (u, y) and (v, y) for each common neighbour y; WSRE judges (u, y)
    for y in N(v), (v, y) for y in N(u), and uv itself on xi."""

    def factor(self, r: int, edel: bool) -> int:
        if self.reads_nu:
            return 3 * r + 6 if edel else r + 3
        return 2 * r + 3 if edel else r + 2

    def start(self, g: _WorkGraph, edges: Iterable) -> None:
        delta, wd, nbr = self.cs.delta_v, g.wd, g.nbr
        # degree outside the list; doomed: degree below the whole list
        self.bad_vertices = {v for v, d in wd.items() if d not in delta[v]}
        self.doomed = {v for v in self.bad_vertices if wd[v] < min(delta[v])}
        if self.reads_nu:
            if self.reads_xi:
                vs = sorted(nbr)
                edges = ((a, b) for i, a in enumerate(vs) for b in vs[i + 1:])
            self._rejudge(nbr, edges, self.bad_pairs, set())

    def update(self, g: _WorkGraph, change) -> None:
        # each end, then each pair, is judged once against the sets as they
        # were, so added and dropped stay disjoint; doomed vertices are bad ones
        delta, wd, nbr, doomed, bad = self.cs.delta_v, g.wd, g.nbr, self.doomed, self.bad_vertices
        op, ref, saved = change
        d_added, d_dropped, added, dropped = set(), set(), set(), set()
        if op == VDEL:
            ends = saved[1]
            if ref in bad:
                dropped.add(ref)
                if ref in doomed:
                    d_dropped.add(ref)
        else:
            ends = ref
        for x in ends:
            d, allowed = wd[x], delta[x]
            if x in bad:
                # degrees only fall, so a vertex back in its list was not doomed
                if d in allowed:
                    dropped.add(x)
                elif x not in doomed and d < min(allowed):
                    d_added.add(x)
            elif d not in allowed:
                added.add(x)
                if d < min(allowed):
                    d_added.add(x)
        _flip(doomed, d_added, d_dropped, g.trail)
        _flip(bad, added, dropped, g.trail)
        if not self.reads_nu:
            return
        bad, added, dropped = self.bad_pairs, set(), set()
        if op == VDEL:
            # the pairs at the deleted vertex go; each pair within its
            # neighbourhood lost a common neighbour
            if bad:
                dropped = {p for p in bad if ref in p}
            if self.reads_xi:
                ns = sorted(ends)
                pairs = [(a, b) for i, a in enumerate(ns) for b in ns[i + 1:]]
            else:
                pairs = [(a, b) for a in ends for b in nbr[a] if a < b and b in ends]
        else:
            # each end lost the other as a common neighbour of the other's
            # neighbours; WSRE judges the parted pair on xi, WERE drops it
            u, v = ref
            nbr_u, nbr_v = nbr[u], nbr[v]
            if self.reads_xi:
                pairs = [(u, y) if u < y else (y, u) for y in nbr_v]
                pairs += [(v, y) if v < y else (y, v) for y in nbr_u]
                pairs.append(ref)
            else:
                if ref in bad:
                    dropped.add(ref)
                pairs = [(x, y) if x < y else (y, x)
                         for y in nbr_u.keys() & nbr_v.keys() for x in ref]
        self._rejudge(nbr, pairs, added, dropped)
        _flip(bad, added, dropped, g.trail)

    def _rejudge(self, nbr: dict, pairs: Iterable, added: set, dropped: set) -> None:
        """Judge each of ``pairs`` by whether its common-neighbour count in
        ``nbr`` leaves its list: nu on an edge, xi on a non-adjacent pair
        (only WSRE hands those in), each the stored list, else the default.
        Record in ``added`` each pair that leaves its list and is not in
        ``bad_pairs``, in ``dropped`` each that fits and is; the caller
        flips them.  Each pair is handed in once, so the root scan hands in
        the empty ``bad_pairs`` itself as ``added``."""
        cs, bad = self.cs, self.bad_pairs
        nu, nu_default, xi, xi_default = cs.nu.get, cs.nu_default, cs.xi.get, cs.xi_default
        # a tuple hashes anew on each lookup: a pass that starts with no
        # pair tracked, as the root scan does, skips it
        tracked = bool(bad)
        for p in pairs:
            a, b = p
            na = nbr[a]
            allowed = (nu(p) or nu_default) if b in na else (xi(p) or xi_default)
            fits = len(na.keys() & nbr[b].keys()) in allowed
            if tracked and p in bad:
                if fits:
                    dropped.add(p)
            elif not fits:
                added.add(p)

    def children(self, g: _WorkGraph, bad) -> List[Tuple[str, object]]:
        if len(bad) == 1:
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
        a, b = bad
        cs = self.cs
        out = [(VDEL, a), (VDEL, b)]
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


def solve_wdce_bst(inst: ProblemInstance) -> SolveReport:
    """Degree branching for WDCE with ops within {vdel, edel}."""
    return _search(inst, WDCE, _Degrees)


def solve_were_bst(inst: ProblemInstance) -> SolveReport:
    """Branching solver for WERE with ops within {vdel, edel}."""
    return _search(inst, WERE, _Degrees)


def solve_wsre(inst: ProblemInstance) -> SolveReport:
    """Branching solver for WSRE with ops within {vdel, edel}."""
    return _search(inst, WSRE, _Degrees)


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
