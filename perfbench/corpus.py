"""Seeded corpora for the four benchmark workloads.

Every workload is a fixed *pool* of generated units, split into cells (the
properties the solver's behaviour depends on: kind, operations, size,
budget).  Unit ``i`` of a cell is generated from its own string seed, so any
unit can be rebuilt alone and the committed reference answers in
``reference/`` stay valid.  A run's ``--seed`` picks, per cell, which units
of the pool it runs and in what order: the same seed gives a byte-identical
corpus, another seed a different one, and every cell keeps the same number
of units, so sizes and the YES/NO mix are the same in every run.  The few
cells whose solve times spread over a decade run their whole pool every time
(see ``_bst_plan``), so the seed does not move the tail metrics.

Only the public ``dcedit`` API is used here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from dcedit import (
    ConstraintSet,
    ProblemInstance,
    WeightedGraph,
    random_graph,
    serialize_instance,
)

WORKLOADS = ("bst_planted", "small_sweep", "wsre_kernel", "tw_dp")


@dataclass(frozen=True)
class Item:
    """One CLI invocation: ``dcedit <command> <file> <*args>``."""

    uid: str                  # reference key: "<cell>/<pool index>[/<slot>]"
    command: str              # "solve" or "tw"
    args: Tuple[str, ...]     # arguments after the instance file
    text: str                 # instance file contents
    inst: ProblemInstance     # the same instance in memory, for the checker


def _wdeg(g: WeightedGraph, v) -> int:
    return sum(g.edge_weight(v, u) for u in g.neighbors(v))


def _common(g: WeightedGraph, u, v) -> int:
    return len(g.neighbors(u) & g.neighbors(v))


def _solve_item(uid: str, inst: ProblemInstance) -> Item:
    return Item(uid, "solve", ("--stats",), serialize_instance(inst), inst)


def _tw_item(uid: str, g: WeightedGraph, r: int, mode: str) -> Item:
    """`tw` reads only the graph, so the file carries a trivial WDCE instance."""
    cs = ConstraintSet(r=0, delta_v={v: {0} for v in g.vertices()})
    inst = ProblemInstance(kind="WDCE", graph=g, constraints=cs, ops={"vdel"}, k=0)
    return Item(uid, "tw", ("-r", str(r), "--mode", mode), serialize_instance(inst), inst)


# -- bst_planted --------------------------------------------------------------
#
# A sparse gnp graph G0 with every constraint pinned to G0's own measures,
# then k unit-weight damage elements planted on top: extra edges (when edge
# deletion is allowed) or extra vertices joined to 1-3 vertices of G0.
# Deleting the damage restores G0, so budget k is a planted YES; budget k-1
# is mostly NO.


def _bst_cells() -> List[tuple]:
    return [(kind, ops, n, k, budget)
            for kind in ("WEDCE", "WERE")
            for ops in ("vdel+edel", "vdel")
            for n in (30, 60, 120)
            for k in (2, 3)
            for budget in ("yes", "short")]


def _bst_unit(cell: tuple, index: int) -> List[Item]:
    kind, ops, n, k, budget = cell
    rng = random.Random(f"bst_planted/{kind}/{ops}/{n}/{k}/{budget}/{index}")
    g0 = random_graph(n, rng.uniform(2.5, 4.5) / (n - 1), seed=rng.randrange(2 ** 31))
    vw = dict.fromkeys(g0.vertices(), 1)
    ew = dict.fromkeys(g0.edges(), 1)
    for _ in range(k):
        if "edel" in ops and rng.random() < 0.5:
            while True:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in ew:
                    ew[(u, v)] = 1
                    break
        else:
            x = len(vw)
            vw[x] = 1
            for u in rng.sample(range(n), rng.randint(1, 3)):
                ew[(u, x)] = 1
    g = WeightedGraph(vw, ew)

    def base(*elems):
        """G0 for its own elements, the damaged graph for planted ones."""
        if all(x < n for x in elems) and (len(elems) == 1 or g0.has_edge(*elems)):
            return g0
        return g

    if kind == "WEDCE":
        de = {(u, v): {_wdeg(base(u, v), u) + _wdeg(base(u, v), v)}
              for (u, v) in g.edges()}
        cs = ConstraintSet(r=max(max(s) for s in de.values()), delta_e=de)
    else:
        dv = {v: {_wdeg(base(v), v)} for v in g.vertices()}
        nu = {(u, v): {_common(base(u, v), u, v)} for (u, v) in g.edges()}
        lam = max(max(s) for s in nu.values())
        cs = ConstraintSet(r=max(lam, max(max(s) for s in dv.values())), lam=lam,
                           delta_v=dv, nu=nu, nu_default={0})
    inst = ProblemInstance(kind=kind, graph=g, constraints=cs,
                           ops=frozenset(ops.split("+")),
                           k=k if budget == "yes" else k - 1)
    return [_solve_item(f"{'/'.join(map(str, cell))}/{index}", inst)]


# -- small_sweep --------------------------------------------------------------
#
# One uniformly random labelled graph on 5 or 6 vertices and one budget, swept
# graph-major through every solve() route with uniform singleton lists, as in
# the criterion-1/4 fixture: the WEDCE/WERE search trees, WSRE through kernel
# plus oracle, and WDCE, eadd and edel-only WSRE straight to the oracle; then
# `tw` in both modes, as criterion 6 runs the DPs on small graphs.  Many
# constraint sets over one (graph, budget) is the reuse the oracle's universe
# cache is built for.

SWEEP_ROUTES = (
    ("WEDCE", "vdel+edel"), ("WEDCE", "vdel+edel"), ("WEDCE", "vdel"), ("WEDCE", "edel"),
    ("WERE", "vdel+edel"), ("WERE", "vdel+edel"), ("WERE", "vdel"), ("WERE", "edel"),
    ("WSRE", "vdel+edel"), ("WSRE", "vdel+edel"), ("WSRE", "vdel+edel"),
    ("WSRE", "vdel+edel"), ("WSRE", "vdel+edel"),
    ("WSRE", "vdel"), ("WSRE", "vdel"), ("WSRE", "vdel"),
    ("WDCE", "vdel"), ("WDCE", "edel"), ("WDCE", "vdel+edel"),
    ("WDCE", "eadd"), ("WDCE", "vdel+eadd"),
    ("WERE", "eadd"), ("WERE", "edel+eadd"),
    ("WSRE", "eadd"), ("WSRE", "vdel+eadd"), ("WSRE", "edel"),
)


def _uniform(kind: str, g: WeightedGraph, r: int, lam: int, mu: int) -> ConstraintSet:
    if kind == "WEDCE":
        return ConstraintSet(r=r, delta_e={e: {r} for e in g.edges()})
    regular = kind in ("WERE", "WSRE")
    strong = kind == "WSRE"
    return ConstraintSet(r=r, lam=lam if regular else None, mu=mu if strong else None,
                         delta_v={v: {r} for v in g.vertices()},
                         nu_default={lam} if regular else None,
                         xi_default={mu} if strong else None)


def _sweep_cells() -> List[tuple]:
    # the budget sets most of a unit's solve time and the size of the oracle
    # universes it caches, so every run holds the same number of units per budget
    return [(n, k) for n in (5, 6) for k in range(4)]


def _sweep_unit(cell: tuple, index: int) -> List[Item]:
    n, k = cell
    rng = random.Random(f"small_sweep/{n}/{k}/{index}")
    g = WeightedGraph.build(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                                       if rng.random() < 0.5])
    items = []
    for slot, (kind, ops) in enumerate(SWEEP_ROUTES):
        r = rng.randint(1, 3)
        lam, mu = rng.randint(0, r), rng.randint(0, r)
        inst = ProblemInstance(kind=kind, graph=g, constraints=_uniform(kind, g, r, lam, mu),
                               ops=frozenset(ops.split("+")), k=k)
        items.append(_solve_item(f"{n}/{k}/{index}/{slot}", inst))
    for mode in ("induced", "subgraph"):
        items.append(_tw_item(f"{n}/{k}/{index}/{mode}", g, rng.randint(1, 3), mode))
    return items


# -- wsre_kernel --------------------------------------------------------------
#
# Planted *-variant WSRE instances: clean filler components (edge, path,
# triangle, C4, C5) up to about n vertices, plus one or two spoiled hubs, each
# carrying a pendant that only its own deletion repairs.  The budget is the
# planted cost or one less.  The "deadend" cell is the uniform-list gnp family
# of random_graph(14, .25), r=3, lambda=0, mu=1, k=2, whose kernel stays above
# the oracle's envelope, so solve() refuses it today.

_PIECES = {
    "edge": (2, [(0, 1)]),
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (0, 2), (1, 2)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
}


def _wsre_cells() -> List[tuple]:
    cells = [(ops, n, budget) for ops in ("vdel+edel", "vdel")
             for n in (15, 30, 60) for budget in ("yes", "short")]
    return cells + [(ops, 14, "deadend") for ops in ("vdel+edel", "vdel")]


def _wsre_unit(cell: tuple, index: int) -> List[Item]:
    ops, n, budget = cell
    rng = random.Random(f"wsre_kernel/{ops}/{n}/{budget}/{index}")
    uid = f"{ops}/{n}/{budget}/{index}"
    if budget == "deadend":
        g = random_graph(14, 0.25, seed=rng.randrange(2 ** 31))
        cs = ConstraintSet(r=3, lam=0, mu=1, delta_v={v: {3} for v in g.vertices()},
                           nu_default={0}, xi_default={1})
        inst = ProblemInstance(kind="WSRE", graph=g, constraints=cs,
                               ops=frozenset(ops.split("+")), k=2)
        return [_solve_item(uid, inst)]
    hubs = rng.randint(1, 2)
    vw: Dict[int, int] = {}
    ew: Dict[tuple, int] = {}
    spoiled = []
    while len(vw) < n - 6 * hubs:
        size, edges = _PIECES[rng.choice(sorted(_PIECES))]
        base = len(vw)
        vw.update(dict.fromkeys(range(base, base + size), 1))
        ew.update({(base + u, base + v): 1 for (u, v) in edges})
    for _ in range(hubs):
        hub = len(vw)
        chain = list(range(hub + 2, hub + 2 + rng.randint(2, 4)))
        vw.update(dict.fromkeys([hub, hub + 1] + chain, 1))
        ew[(hub, hub + 1)] = ew[(hub, chain[0])] = 1
        ew.update({(a, b): 1 for a, b in zip(chain, chain[1:])})
        spoiled.append(hub)
    g = WeightedGraph(vw, ew)
    dv = {v: {_wdeg(g, v)} for v in g.vertices()}
    for hub in spoiled:
        dv[hub] = {_wdeg(g, hub) - 1}
        dv[hub + 1] = {0}
    nu = {e: {_common(g, *e)} for e in g.edges()}
    xi = {p: {_common(g, *p)} for p in g.non_adjacent_pairs()}
    lam = max(max(s) for s in nu.values())
    mu = max(max(s) for s in xi.values())
    r = max(lam, mu, max(max(s) for s in dv.values()))
    cs = ConstraintSet(r=r, lam=lam, mu=mu, delta_v=dv, nu=nu, xi=xi,
                       nu_default={0}, xi_default={0})
    inst = ProblemInstance(kind="WSRE", graph=g, constraints=cs,
                           ops=frozenset(ops.split("+")),
                           k=hubs if budget == "yes" else hubs - 1)
    return [_solve_item(uid, inst)]


# -- tw_dp --------------------------------------------------------------------
#
# Random partial w-trees: grow a w-tree by attaching each new vertex to a
# random w-clique, keep each edge with probability 0.6, relabel the vertices
# at random.


def _tw_cells() -> List[tuple]:
    return [(w, n, mode, r) for w in (2, 3, 4) for n in (20, 40, 80)
            for mode in ("induced", "subgraph") for r in (2, 3)]


def _tw_unit(cell: tuple, index: int) -> List[Item]:
    w, n, mode, r = cell
    rng = random.Random(f"tw_dp/{w}/{n}/{mode}/{r}/{index}")
    edges = {(u, v) for u in range(w + 1) for v in range(u + 1, w + 1)}
    cliques = [tuple(c for c in range(w + 1) if c != x) for x in range(w + 1)]
    for v in range(w + 1, n):
        base = rng.choice(cliques)
        edges.update((u, v) for u in base)
        cliques.extend(tuple(sorted(set(base) - {x})) + (v,) for x in base)
    label = list(range(n))
    rng.shuffle(label)
    kept = [(label[u], label[v]) for (u, v) in sorted(edges) if rng.random() < 0.6]
    g = WeightedGraph.build(range(n), kept)
    return [_tw_item(f"{w}/{n}/{mode}/{r}/{index}", g, r, mode)]


# -- pools and sampling -------------------------------------------------------

# Cells whose solve times spread over a decade run their whole pool in every
# run; sampling them moved p95 by 15-20% between seeds.  In bst_planted these
# are all WEDCE k=3 cells, which hold the slowest twenty-odd instances, so
# p95 (about the twelfth slowest of 234) does not depend on the seed.  The
# seed varies the units of every other cell.

def _bst_plan(cell: tuple) -> Tuple[int, int]:
    kind, _, _, k, budget = cell
    if (kind, k) != ("WEDCE", 3):
        return (6, 5)
    return (4, 4) if budget == "yes" else (5, 5)


def _tw_plan(cell: tuple) -> Tuple[int, int]:
    w, _, mode, _ = cell
    return (4, 4) if (w, mode) == (4, "subgraph") else (5, 4)


# workload -> (cells, unit generator, cell -> (pool units, units per run))
POOLS = {
    "bst_planted": (_bst_cells, _bst_unit, _bst_plan),
    "small_sweep": (_sweep_cells, _sweep_unit, lambda cell: (15, 8)),
    "wsre_kernel": (_wsre_cells, _wsre_unit, lambda cell: (24, 16)),
    "tw_dp": (_tw_cells, _tw_unit, _tw_plan),
}


def pool_units(workload: str) -> List[Tuple[tuple, int]]:
    """Every (cell, index) of the workload's pool, in reference order."""
    cells, _, plan = POOLS[workload]
    return [(cell, i) for cell in cells() for i in range(plan(cell)[0])]


def make_unit(workload: str, cell: tuple, index: int) -> List[Item]:
    return POOLS[workload][1](cell, index)


def sample_units(workload: str, seed: int) -> List[Tuple[tuple, int]]:
    """The seed's units: a fixed number per cell, shuffled across cells."""
    cells, _, plan = POOLS[workload]
    rng = random.Random(f"perfbench/{workload}/seed/{seed}")
    units = [(cell, i) for cell in cells() for i in sorted(rng.sample(range(plan(cell)[0]),
                                                                    plan(cell)[1]))]
    rng.shuffle(units)
    return units


def build_corpus(workload: str, seed: int) -> List[Item]:
    """All items of one run, units kept contiguous (graph-major for small_sweep)."""
    return [item for cell, i in sample_units(workload, seed)
            for item in make_unit(workload, cell, i)]
