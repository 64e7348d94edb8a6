"""Clean regions, reduction rules, and kernel-size bounds.

The rules operate on *-variant instances (every consulted constraint list
a singleton).  A clean region is a maximal connected set of vertices that
lie on no violated constraint (``problems.violations``, the one definition
of what each kind checks); its boundary B(C) collects the external
neighbours, and layer C_i holds the region vertices at distance i from
B(C) (distances measured in the whole graph; layers start at 1).

Rule application is a pure instance-to-instance step.  Each rule returns
``(new_instance, TraceStep)`` or ``None`` when it does not apply; the
``kernelize`` driver composes them under a fixed priority until fixpoint.

Two deliberate differences from the naive rule statements, both forced by
answer preservation on weighted instances (see the repository notes):

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
from typing import List, Tuple

from .graphs import WeightedGraph, edge_key, weighted_degree
from .problems import (
    EDEL,
    VDEL,
    WEDCE,
    WERE,
    WSRE,
    ProblemInstance,
    measures,
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
    m = measures(g.vertices(), g.edges(), g.adjacency(), g.edge_weights(), inst.kind)
    dirty = set()
    for item in violations(inst, m):
        dirty.update(item)
    return set(m.verts) - dirty


def find_clean_regions(inst: ProblemInstance) -> List[CleanRegion]:
    """All maximal clean regions, each with boundary and layers, sorted by
    smallest member id."""
    if inst.kind not in (WEDCE, WERE, WSRE):
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


def _prune_dead(cs, graph: WeightedGraph):
    """Drop stored constraint entries that mention deleted vertices."""
    alive = set(graph.vertices())

    def keep_v(m):
        return {v: s for v, s in m.items() if v in alive}

    def keep_p(m):
        return {p: s for p, s in m.items() if p[0] in alive and p[1] in alive}

    return cs.replace(delta_v=keep_v(cs.delta_v), delta_e=keep_p(cs.delta_e),
                      nu=keep_p(cs.nu), xi=keep_p(cs.xi))


def _patched(cs, **updates):
    """cs with the given constraint maps replaced, widening r / lambda / mu to
    cover the new values.

    Structural rules pin constraints to degree sums or common-neighbour
    counts of the rewritten graph, and clique completion can push those
    past the original bounds.  Widening is sound on *-variant instances:
    every consulted list is an explicit singleton (or a singleton default),
    so the wider full-range fallbacks are never consulted.
    """
    maps = {
        name: updates.get(name, getattr(cs, name))
        for name in ("delta_v", "delta_e", "nu", "xi")
    }

    def peak(*dicts):
        return max((x for m in dicts for s in m.values() for x in s),
                   default=0)

    lam = cs.lam if cs.lam is None else max(cs.lam, peak(maps["nu"]))
    mu = cs.mu if cs.mu is None else max(cs.mu, peak(maps["xi"]))
    r = max(cs.r, peak(maps["delta_v"], maps["delta_e"]), lam or 0, mu or 0)
    return cs.replace(r=r, lam=lam, mu=mu, **maps)


# -- rule 1: unsalvageable high-degree vertices -----------------------------


def _rescuable(inst: ProblemInstance, v) -> bool:
    """Can some affordable set of incident-edge removals bring d(v) to <= r?

    Each incident edge uv can disappear by deleting it (cost rho(uv), if
    edge deletion is allowed) or by deleting the neighbour u (cost rho(u)).
    A 0/1 knapsack over those options maximises removable weight within
    budget k; v is doomed iff even that maximum leaves d(v) above r.
    """
    g, cs = inst.graph, inst.constraints
    d = weighted_degree(g, v)
    shortfall = d - cs.r
    if shortfall <= 0:
        return True
    cap = max(inst.k, 0)
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
    return best[cap] >= shortfall


def rr1_high_degree(inst: ProblemInstance):
    """Delete a vertex whose weighted degree provably cannot be repaired."""
    if inst.kind not in (WEDCE, WERE, WSRE):
        raise ValueError(f"rule 1 does not cover kind {inst.kind}")
    if VDEL not in inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError("rule 1 needs vdel in ops and ops within {vdel, edel}")
    _require_star(inst)
    g = inst.graph
    for v in g.vertices():
        if weighted_degree(g, v) > inst.k + inst.constraints.r and \
                not _rescuable(inst, v):
            cost = g.vertex_weight(v)
            new_g = g.delete_vertex(v)
            new = inst.replace(graph=new_g, k=inst.k - cost,
                               constraints=_prune_dead(inst.constraints, new_g))
            return new, TraceStep("rr1", (v,), -cost)
    return None


# -- rule 2: clean regions with empty boundary ------------------------------


def rr2_isolated_clean(inst: ProblemInstance):
    """Remove one whole clean region that has no external neighbours."""
    for region in find_clean_regions(inst):
        if not region.boundary:
            keep = set(inst.graph.vertices()) - region.vertices
            new_g = inst.graph.subgraph(keep)
            new = inst.replace(graph=new_g,
                               constraints=_prune_dead(inst.constraints, new_g))
            return new, TraceStep("rr2", tuple(sorted(region.vertices)), 0)
    return None


# -- rule 3: deep layers of a clean region (WEDCE) --------------------------


def rr3_deep_clean_wedce(inst: ProblemInstance):
    """Delete layers C_i, i >= k+2, then re-pin delta on the frontier edges."""
    if inst.kind != WEDCE:
        raise ValueError("rule 3 is a WEDCE rule")
    if not inst.ops <= {VDEL, EDEL}:
        raise ValueError("rule 3 needs ops within {vdel, edel}")
    _require_star(inst)
    k = inst.k
    for region in find_clean_regions(inst):
        if not region.boundary or len(region.layers) < k + 2:
            continue
        doomed = set()
        for layer in region.layers[k + 1:]:
            doomed |= layer
        keep = set(inst.graph.vertices()) - doomed
        new_g = inst.graph.subgraph(keep)
        frontier = region.layer(k + 1)
        # the frontier's surviving neighbours: C_{k+1} itself and the layer
        # above it (the boundary itself when k = 0)
        inward = region.layer(k) if k >= 1 else region.boundary
        cs = _prune_dead(inst.constraints, new_g)
        delta_e = dict(cs.delta_e)
        for u in sorted(frontier):
            for v in sorted(new_g.neighbors(u)):
                if v in frontier or v in inward:
                    d = weighted_degree(new_g, u) + weighted_degree(new_g, v)
                    delta_e[edge_key(u, v)] = frozenset((d,))
        new = inst.replace(graph=new_g, constraints=_patched(cs, delta_e=delta_e))
        return new, TraceStep("rr3", tuple(sorted(doomed)), 0)
    return None


# -- rule 4: contract a clean region to one edge (WEDCE, edge deletion only) -


def _rr4_result(inst: ProblemInstance, region: CleanRegion):
    g = inst.graph
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
    cs = _prune_dead(inst.constraints, new_g)
    delta_e = dict(cs.delta_e)
    du = weighted_degree(new_g, u_new)
    delta_e[edge_key(u_new, v_new)] = frozenset(
        (du + weighted_degree(new_g, v_new),)
    )
    for b in sorted(region.boundary):
        delta_e[edge_key(b, u_new)] = frozenset((weighted_degree(new_g, b) + du,))
    new = inst.replace(graph=new_g, constraints=_patched(cs, delta_e=delta_e))
    return new, TraceStep("rr4", tuple(sorted(comp)) + (u_new, v_new), 0)


def rr4_contract_clean_wedce_edel(inst: ProblemInstance):
    """Replace a clean region by a fresh edge uv; boundary weights are the
    exact sums of the replaced edges, the internal weight clamps at k+1."""
    if inst.kind != WEDCE:
        raise ValueError("rule 4 is a WEDCE rule")
    if inst.ops != frozenset((EDEL,)):
        raise ValueError("rule 4 applies only when ops is exactly {edel}")
    _require_star(inst)
    for region in find_clean_regions(inst):
        if len(region.vertices) < 2 or not region.boundary:
            continue
        if _already_contracted(inst, region):
            continue
        return _rr4_result(inst, region)
    return None


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


# -- rules 5 and 6: shrink a clean region to its shallow layers -------------


def _shrink_region(inst: ProblemInstance, region: CleanRegion, depth: int,
                   rule: str):
    """Shared engine: keep layers 1..depth, clique them, re-pin constraints,
    absorb the deleted weight onto the lowest-id kept vertex."""
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
    cs = _prune_dead(inst.constraints, new_g)
    m = measures(new_g.vertices(), new_g.edges(), new_g.adjacency(),
                 new_g.edge_weights(), inst.kind)
    delta_v = dict(cs.delta_v)
    delta_v.update((v, {d}) for v, d in zip(m.verts, m.wdeg) if v in kept)
    nu = dict(cs.nu)
    nu.update((e, {c}) for e, c in zip(m.edges, m.ecom) if kept.intersection(e))
    xi = dict(cs.xi)
    if inst.kind == WSRE:
        xi.update((p, {c}) for p, c in zip(m.pairs, m.pcom) if kept.intersection(p))
    new_cs = _patched(cs, delta_v=delta_v, nu=nu, xi=xi)
    new = inst.replace(graph=new_g, constraints=new_cs)
    if new == inst:
        return None
    return new, TraceStep(rule, tuple(sorted(region.vertices)), 0)


def rr5_shrink_were(inst: ProblemInstance):
    """Shrink a WERE clean region to a patched clique on its first layer."""
    if inst.kind != WERE:
        raise ValueError("rule 5 is a WERE rule")
    if VDEL not in inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError("rule 5 needs vdel in ops and ops within {vdel, edel}")
    _require_star(inst)
    for region in find_clean_regions(inst):
        if not region.boundary:
            continue
        got = _shrink_region(inst, region, 1, "rr5")
        if got is not None:
            return got
    return None


def rr6_shrink_wsre(inst: ProblemInstance):
    """Shrink a WSRE clean region to a patched clique on layers 1 and 2."""
    if inst.kind != WSRE:
        raise ValueError("rule 6 is a WSRE rule")
    if VDEL not in inst.ops or not inst.ops <= {VDEL, EDEL}:
        raise ValueError("rule 6 needs vdel in ops and ops within {vdel, edel}")
    _require_star(inst)
    for region in find_clean_regions(inst):
        if not region.boundary:
            continue
        got = _shrink_region(inst, region, 2, "rr6")
        if got is not None:
            return got
    return None


# -- driver -----------------------------------------------------------------

_STRUCTURAL = {
    WEDCE: (rr3_deep_clean_wedce, rr4_contract_clean_wedce_edel),
    WERE: (rr5_shrink_were,),
    WSRE: (rr6_shrink_wsre,),
}

RULES_BY_NAME = {
    "rr1": rr1_high_degree,
    "rr2": rr2_isolated_clean,
    "rr3": rr3_deep_clean_wedce,
    "rr4": rr4_contract_clean_wedce_edel,
    "rr5": rr5_shrink_were,
    "rr6": rr6_shrink_wsre,
}


def _applicable_rules(inst: ProblemInstance):
    rules = []
    if VDEL in inst.ops and inst.ops <= {VDEL, EDEL}:
        rules.append(rr1_high_degree)
    rules.append(rr2_isolated_clean)
    for rule in _STRUCTURAL[inst.kind]:
        if rule is rr4_contract_clean_wedce_edel:
            if inst.ops == frozenset((EDEL,)):
                rules.append(rule)
        elif rule is rr3_deep_clean_wedce:
            rules.append(rule)
        elif VDEL in inst.ops:
            rules.append(rule)
    return rules


def kernelize(inst: ProblemInstance):
    """Apply the applicable rules to exhaustion; returns (reduced, trace)."""
    if inst.kind not in _STRUCTURAL:
        raise ValueError(f"no reduction rules cover kind {inst.kind}")
    if not inst.ops <= {VDEL, EDEL}:
        raise ValueError("reduction rules cover ops within {vdel, edel} only")
    if inst.kind in (WERE, WSRE) and VDEL not in inst.ops:
        raise ValueError(f"no {inst.kind} rules apply without vdel")
    _require_star(inst)
    steps: List[TraceStep] = []
    for _ in range(100_000):
        if inst.k < 0:
            break  # already an immediate no; nothing left to shrink
        for rule in _applicable_rules(inst):
            got = rule(inst)
            if got is not None:
                inst, step = got
                steps.append(step)
                break
        else:
            break
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
