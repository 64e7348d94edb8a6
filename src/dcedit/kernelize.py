"""Clean regions, reduction rules, and kernel-size bounds.

The rules operate on *-variant instances (every consulted constraint list
a singleton).  A clean region is a maximal connected set of vertices that
lie on no violated constraint (``problems.violations``, the one definition
of what each kind checks); its boundary B(C) collects the external
neighbours, and layer C_i holds the region vertices at distance i from
B(C) (distances measured in the whole graph; layers start at 1).

``_RULES`` is the one table of which (kind, ops) pairs each rule covers.
The public rules are the ``RULES_BY_NAME`` entries built from it, one per
row (``rr1`` .. ``rr6``); each refuses a pair its row does not cover, and
``kernelize`` runs the rules that cover the instance, in name order.  Rule
1 looks at single vertices; rules 2-6 are steps on one clean region.  One
round tries rule 1, then builds the clean regions once and offers them to
each covered region step in turn; the first rule that fires ends the round
with ``(new_instance, TraceStep)``.  ``kernelize`` repeats rounds until none fires.

The *-variant check runs once when a public rule or ``kernelize`` is
entered; after that only ``find_clean_regions`` checks it, once per round.
Rules 3-6 pin each list with an end in the vertices their rewrite disturbs
to its new measure (``problems.pinned_lists``): C_{k+1} for rule 3, the
fresh vertex u for rule 4, the kept layers for rules 5 and 6.  Rules 1 and 2
only delete, so a *-variant instance stays one.

Two deliberate differences from the naive rule statements, both forced by
answer preservation on weighted instances (``tests/test_kernelize.py`` pins
them in ``TestRule1::test_repairable_degree_is_spared``,
``TestRule5::test_deep_layers_absorbed`` and ``TestRule6::test_two_layers_survive``):

* rule 1 deletes a vertex only when no affordable combination of incident
  edge removals can sink its weighted degree to r ("cost-aware" guard; on
  unit weights this is exactly the classic d(v) > k + r test);
* rules 4-6 patch every constraint their structural edits can disturb —
  including boundary edges — and absorb deleted weight on top of the
  carrier vertex's own weight.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import List, Tuple

from .problems import (
    CONSULTED,
    EDEL,
    FAMILIES,
    VDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    ProblemInstance,
    measures,
    pinned_lists,
    star_violation,
    violations,
)


@dataclass(frozen=True)
class CleanRegion:
    kind: str
    vertices: frozenset
    boundary: frozenset
    layers: Tuple[frozenset, ...]

    def layer(self, i: int) -> frozenset:
        """C_i (1-indexed); empty beyond the deepest layer."""
        if i < 1:
            raise IndexError("layers start at 1")
        return self.layers[i - 1] if i <= len(self.layers) else frozenset()


@dataclass(frozen=True)
class TraceStep:
    rule: str
    affected: tuple
    k_delta: int


@dataclass(frozen=True)
class KernelTrace:
    steps: Tuple[TraceStep, ...]
    final: ProblemInstance


def _require_star(inst: ProblemInstance):
    why = star_violation(inst)
    if why is not None:
        raise ValueError(f"rules need a *-variant instance: {why}")


def _clean_vertices(inst: ProblemInstance) -> set:
    """The vertices that lie on no violated constraint."""
    g = inst.graph
    m = measures(g.vertices(), g.edges(), g.edge_weights(), inst.kind)
    dirty = set()
    for item in violations(inst, m):
        dirty.update(item)
    return set(m.verts) - dirty


def find_clean_regions(inst: ProblemInstance) -> List[CleanRegion]:
    """All maximal clean regions, each with boundary and layers, sorted by
    smallest member id."""
    if inst.kind not in _ANY_KIND:
        raise ValueError(f"clean regions are undefined for kind {inst.kind}")
    _require_star(inst)
    g = inst.graph
    clean = _clean_vertices(inst)
    seen = set()
    regions = []
    for start in sorted(clean):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y in clean and y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        boundary = set()
        for c in comp:
            boundary |= g.neighbors(c) - comp
        layers: List[frozenset] = []
        if boundary:
            dist = {b: 0 for b in boundary}
            queue = deque(boundary)
            while queue:
                x = queue.popleft()
                for y in g.neighbors(x):
                    if y in comp and y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            depth = max(dist[c] for c in comp)
            layers = [
                frozenset(c for c in comp if dist[c] == i)
                for i in range(1, depth + 1)
            ]
        regions.append(
            CleanRegion(inst.kind, frozenset(comp), frozenset(boundary),
                        tuple(layers))
        )
    return regions


def _rewrite(inst: ProblemInstance, graph, rule: str, affected, k_delta=0,
             near=frozenset()):
    """``inst`` moved onto ``graph`` with budget k + k_delta, and its step.

    Stored constraint entries that mention deleted vertices are dropped, and
    every list with an end in the vertex set ``near`` is pinned to its
    measure on ``graph`` (``pinned_lists``).  Clique completion can push
    those measures past the original bounds, so r / lambda / mu widen to
    cover the pins.  Widening is sound on *-variant instances: every
    consulted list is an explicit singleton (or a singleton default), so
    the wider full-range fallbacks are never consulted.
    """
    cs = inst.constraints
    alive = set(graph.vertices())
    maps = {}
    for f in FAMILIES:
        lists = getattr(cs, f.store).items()
        maps[f.store] = ({v: s for v, s in lists if v in alive} if f.on_vertices else
                         {p: s for p, s in lists if p[0] in alive and p[1] in alive})
    pins = pinned_lists(inst.kind, graph, near) if near else {}
    bounds = {"r": cs.r, "lam": cs.lam, "mu": cs.mu}
    for f in CONSULTED[inst.kind]:
        pinned = pins.get(f.store, {})
        maps[f.store].update(pinned)
        # stored lists already lie within the bounds, so only pins can widen
        for s in pinned.values():
            bounds[f.bound] = max(bounds[f.bound], *s)
    bounds["r"] = max(b for b in bounds.values() if b is not None)
    new = inst.replace(graph=graph, k=inst.k + k_delta,
                       constraints=cs.replace(**bounds, **maps))
    return new, TraceStep(rule, tuple(affected), k_delta)


# -- rule 1: unsalvageable high-degree vertices -----------------------------


def _rescuable(inst: ProblemInstance, v, d: int) -> bool:
    """Can some affordable set of incident-edge removals bring v's weighted
    degree d > k + r down to r?

    Each incident edge uv can disappear by deleting it (cost rho(uv), if
    edge deletion is allowed) or by deleting the neighbour u (cost rho(u)).
    A 0/1 knapsack over those options maximises removable weight within
    budget k >= 0; v is doomed iff even that maximum leaves d above r.
    """
    g, cap = inst.graph, inst.k
    allow_edel = EDEL in inst.ops
    best = [0] * (cap + 1)
    for u in g.neighbors(v):
        w = g.edge_weight(v, u)
        cost = g.vertex_weight(u)
        if allow_edel:
            cost = min(cost, w)
        for c in range(cap, cost - 1, -1):
            cand = best[c - cost] + w
            if cand > best[c]:
                best[c] = cand
    return best[cap] >= d - inst.constraints.r


def _high_degree(inst: ProblemInstance):
    """Rule 1: delete a vertex whose weighted degree cannot be repaired."""
    g = inst.graph
    m = measures(g.vertices(), g.edges(), g.edge_weights(), WDCE)
    for v, d in zip(m.verts, m.wdeg):
        if d > inst.k + inst.constraints.r and not _rescuable(inst, v, d):
            cost = g.vertex_weight(v)
            return _rewrite(inst, g.delete_vertex(v), "rr1", (v,), -cost)
    return None


# -- region steps: each takes (inst, region, rule name), None if it does not fire


def _drop_isolated(inst: ProblemInstance, region: CleanRegion, rule: str):
    """Rule 2: remove one whole clean region with no external neighbours."""
    if region.boundary:
        return None
    keep = set(inst.graph.vertices()) - region.vertices
    return _rewrite(inst, inst.graph.subgraph(keep), rule, sorted(region.vertices))


def _cut_deep_layers(inst: ProblemInstance, region: CleanRegion, rule: str):
    """Rule 3: delete layers C_i, i >= k+2; re-pin delta on the edges of
    C_{k+1}, whose other ends lie in C_k (the boundary when k = 0) or C_{k+1}."""
    k = inst.k
    if not region.boundary or len(region.layers) < k + 2:
        return None
    doomed = set()
    for layer in region.layers[k + 1:]:
        doomed |= layer
    keep = set(inst.graph.vertices()) - doomed
    return _rewrite(inst, inst.graph.subgraph(keep), rule, sorted(doomed),
                    near=region.layer(k + 1))


def _contract(inst: ProblemInstance, region: CleanRegion, rule: str):
    """Rule 4: replace a clean region by a fresh edge uv; boundary weights
    are the exact sums of the replaced edges, the internal weight clamps at
    k+1.  The fresh ids follow the largest id, so the ids must be integers."""
    if len(region.vertices) < 2 or not region.boundary or \
            _already_contracted(inst, region):
        return None
    g = inst.graph
    if not all(isinstance(v, int) for v in g.vertices()):
        raise ValueError(f"{rule} names its new vertices after the largest id, "
                         "so it needs integer vertex ids")
    comp = region.vertices
    fresh = max(g.vertices()) + 1
    u_new, v_new = fresh, fresh + 1
    internal = sum(
        g.edge_weight(*e) for e in g.edges() if e[0] in comp and e[1] in comp
    )
    keep = set(g.vertices()) - comp
    new_g = g.subgraph(keep)
    new_g = new_g.add_vertex(u_new).add_vertex(v_new)
    new_g = new_g.add_edge(u_new, v_new, min(inst.k + 1, internal))
    for b in sorted(region.boundary):
        w = sum(g.edge_weight(b, c) for c in g.neighbors(b) & comp)
        new_g = new_g.add_edge(b, u_new, w)
    return _rewrite(inst, new_g, rule, sorted(comp) + [u_new, v_new],
                    near={u_new})


def _already_contracted(inst: ProblemInstance, region: CleanRegion) -> bool:
    """Would rule 4 reproduce this region verbatim (fresh ids aside)?"""
    if len(region.vertices) != 2:
        return False
    a, b = sorted(region.vertices)
    g = inst.graph
    if g.edge_weight(a, b) > inst.k + 1:
        return False
    with_boundary = [
        c for c in (a, b) if g.neighbors(c) & region.boundary
    ]
    if len(with_boundary) > 1:
        return False
    # every boundary vertex may touch the region through one edge only
    return all(len(g.neighbors(x) & region.vertices) == 1 for x in region.boundary)


def _shrink_region(inst: ProblemInstance, region: CleanRegion, rule: str,
                   depth: int):
    """Rules 5 and 6: shrink a WERE (depth 1) or WSRE (depth 2) clean region
    to a patched clique on its layers 1..depth; absorb the deleted weight
    onto the lowest-id kept vertex."""
    if not region.boundary:
        return None
    g = inst.graph
    kept = set()
    for layer in region.layers[:depth]:
        kept |= layer
    deep = region.vertices - kept
    new_g = g.subgraph(set(g.vertices()) - deep)
    kept_sorted = sorted(kept)
    for i, a in enumerate(kept_sorted):
        for b in kept_sorted[i + 1:]:
            if not new_g.has_edge(a, b):
                new_g = new_g.add_edge(a, b, 1)
    if deep:
        carrier = kept_sorted[0]
        absorbed = sum(g.vertex_weight(x) for x in deep)
        new_g = new_g.set_vertex_weight(
            carrier, min(inst.k + 1, g.vertex_weight(carrier) + absorbed)
        )
    got = _rewrite(inst, new_g, rule, sorted(region.vertices), near=kept)
    return None if got[0] == inst else got


# -- the rule table, rounds and the driver ----------------------------------

_ANY_KIND = (WEDCE, WERE, WSRE)
_WITH_VDEL = (frozenset((VDEL,)), frozenset((VDEL, EDEL)))
_EDEL_ONLY = (frozenset((EDEL,)),)

# rule -> (kinds, ops sets it covers (None: any), region step (None: rule 1))
_RULES = {
    "rr1": (_ANY_KIND, _WITH_VDEL, None),
    "rr2": (_ANY_KIND, None, _drop_isolated),
    "rr3": ((WEDCE,), _WITH_VDEL + _EDEL_ONLY, _cut_deep_layers),
    "rr4": ((WEDCE,), _EDEL_ONLY, _contract),
    "rr5": ((WERE,), _WITH_VDEL, partial(_shrink_region, depth=1)),
    "rr6": ((WSRE,), _WITH_VDEL, partial(_shrink_region, depth=2)),
}


def _covers(rule: str, inst: ProblemInstance) -> bool:
    kinds, op_sets, _ = _RULES[rule]
    return inst.kind in kinds and (op_sets is None or inst.ops in op_sets)


def _round(inst: ProblemInstance, rules: Tuple[str, ...]):
    """The first of ``rules`` (in order) that fires on inst, as
    ``(new_instance, TraceStep)``, or None.  A negative budget is already
    an immediate no, so nothing fires.  Rule 1 goes first; the clean
    regions are then built once and offered to each region step."""
    if inst.k < 0:
        return None
    if rules[0] == "rr1":
        got = _high_degree(inst)
        if got is not None or len(rules) == 1:
            return got
        rules = rules[1:]
    regions = find_clean_regions(inst)
    for rule in rules:
        step = _RULES[rule][2]
        for region in regions:
            got = step(inst, region, rule)
            if got is not None:
                return got
    return None


def _apply(rule: str, inst: ProblemInstance):
    """``rule`` alone on inst, refusing a pair its row does not cover."""
    if not _covers(rule, inst):
        ops = ", ".join(sorted(inst.ops))
        raise ValueError(f"{rule} does not cover ({inst.kind}, {{{ops}}})")
    _require_star(inst)
    return _round(inst, (rule,))


RULES_BY_NAME = {rule: partial(_apply, rule) for rule in _RULES}


def kernelize(inst: ProblemInstance):
    """Run the rules that cover inst, in rounds, until none fires; returns
    (reduced, trace)."""
    if not any(inst.kind in kinds for kinds, _, _ in _RULES.values()):
        raise ValueError(f"no reduction rules cover kind {inst.kind}")
    if not inst.ops <= {VDEL, EDEL}:
        raise ValueError("reduction rules cover ops within {vdel, edel} only")
    rules = tuple(rule for rule in _RULES if _covers(rule, inst))
    if rules == ("rr2",):  # dropping clean components alone bounds nothing
        raise ValueError(f"no {inst.kind} rules apply without vdel")
    _require_star(inst)
    steps: List[TraceStep] = []
    for _ in range(100_000):
        got = _round(inst, rules)
        if got is None:
            break
        inst, step = got
        steps.append(step)
    else:
        raise RuntimeError("kernelize failed to reach a fixpoint")
    return inst, KernelTrace(tuple(steps), inst)


def replay_trace(original: ProblemInstance, trace: KernelTrace) -> ProblemInstance:
    """Re-run the recorded rules in order; verifies the trace matches."""
    inst = original
    for step in trace.steps:
        got = RULES_BY_NAME[step.rule](inst)
        if got is None:
            raise ValueError(f"replay: {step.rule} no longer applies")
        inst, replayed = got
        if replayed != step:
            raise ValueError(f"replay diverged: {replayed} != {step}")
    if inst != trace.final:
        raise ValueError("replay did not reproduce the final instance")
    return inst


# -- kernel size bounds -----------------------------------------------------


def kernel_bound(kind: str, ops, k: int, r: int) -> int:
    """Vertex-count bound guaranteed after kernelize, per (kind, ops)."""
    ops = frozenset(ops)
    if k < 0 or r < 0:
        raise ValueError("k and r must be non-negative")
    if kind == WEDCE and VDEL in ops and ops <= {VDEL, EDEL}:
        return k * (1 + (k + r) * (1 + r ** (k + 1)))
    if kind == WEDCE and ops == frozenset((EDEL,)):
        return 2 * k + 4 * k * r
    if kind == WERE and VDEL in ops and ops <= {VDEL, EDEL}:
        return k + k * (k + r) + k * r * (k + r)
    if kind == WSRE and VDEL in ops and ops <= {VDEL, EDEL}:
        return k + k * (k + r) + k * r * (r + 1) * (k + r)
    raise ValueError(f"no kernel bound for ({kind}, {sorted(ops)})")
