"""Problem instances: constraint sets, edit scripts, and the one checker.

The four problem kinds share one instance model:

* ``WDCE``  — per-vertex degree lists: every vertex's weighted degree must
  land in delta(v).
* ``WEDCE`` — per-edge lists on the weighted edge-degree d(uv) = d(u)+d(v).
* ``WERE``  — vertex lists plus a common-neighbour list nu(u,v) on edges.
* ``WSRE``  — WERE plus a list xi(u,v) on non-adjacent pairs.

``measures`` and ``violations`` are the one definition of what each kind
checks; ``check_constraints``, the oracle and the clean-region finder read
them.  ``pinned_lists`` pins lists to the measures, for ``exact_instance``
and for the reduction rules.  The search trees keep incremental checks of
their own, so the oracle is an independent reference for them.

Allowed operations are vertex deletion, edge deletion and edge addition
(``vdel``/``edel``/``eadd``); an edit script is billed at the deleted
element's weight, and added edges always carry weight and cost 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple

from .graphs import WeightedGraph, edge_key

WDCE = "WDCE"
WEDCE = "WEDCE"
WERE = "WERE"
WSRE = "WSRE"
KINDS = (WDCE, WEDCE, WERE, WSRE)

VDEL = "vdel"
EDEL = "edel"
EADD = "eadd"
ALL_OPS = (VDEL, EDEL, EADD)


def _norm_sets(mapping, pair=False):
    if pair:
        return {((u, v) if u <= v else (v, u)): frozenset(vals)
                for (u, v), vals in mapping.items()}
    return {key: frozenset(vals) for key, vals in mapping.items()}


class ConstraintSet:
    """delta / nu / xi as maps with defaults, plus the bounds r, lambda, mu.

    Stored sets must be non-empty subsets of their declared ranges.  The nu
    and xi defaults are normalised eagerly: a missing default means the full
    range [0..lam] (resp. [0..mu]).
    """

    __slots__ = ("r", "lam", "mu", "delta_v", "delta_e", "nu", "xi",
                 "nu_default", "xi_default", "_key")

    def __init__(self, r: int, lam: Optional[int] = None, mu: Optional[int] = None,
                 delta_v: Optional[Dict] = None, delta_e: Optional[Dict] = None,
                 nu: Optional[Dict] = None, xi: Optional[Dict] = None,
                 nu_default: Optional[Iterable[int]] = None,
                 xi_default: Optional[Iterable[int]] = None):
        if r < 0:
            raise ValueError("r must be non-negative")
        if lam is not None and not 0 <= lam <= r:
            raise ValueError(f"lambda={lam} out of range [0..{r}]")
        if mu is not None and not 0 <= mu <= r:
            raise ValueError(f"mu={mu} out of range [0..{r}]")
        self.r = r
        self.lam = lam
        self.mu = mu
        self.delta_v = _norm_sets(delta_v or {})
        self.delta_e = _norm_sets(delta_e or {}, pair=True)
        self.nu = _norm_sets(nu or {}, pair=True)
        self.xi = _norm_sets(xi or {}, pair=True)
        for name, m, hi in (("delta", self.delta_v, r), ("delta", self.delta_e, r),
                            ("nu", self.nu, lam), ("xi", self.xi, mu)):
            valid = set()  # a few distinct lists are shared by many keys
            for key, vals in m.items():
                if vals in valid:
                    continue
                if not vals:
                    raise ValueError(f"{name}[{key!r}] is empty")
                if hi is None:
                    raise ValueError(f"{name}[{key!r}] given without its bound")
                if any(x < 0 or x > hi for x in vals):
                    raise ValueError(f"{name}[{key!r}]={sorted(vals)} outside [0..{hi}]")
                valid.add(vals)
        if nu_default is not None:
            nu_default = frozenset(nu_default)
            if lam is None or not nu_default or any(x < 0 or x > lam for x in nu_default):
                raise ValueError("bad nu default")
        if xi_default is not None:
            xi_default = frozenset(xi_default)
            if mu is None or not xi_default or any(x < 0 or x > mu for x in xi_default):
                raise ValueError("bad xi default")
        self._set_defaults(nu_default, xi_default)

    @classmethod
    def _owning(cls, r: int, lam: Optional[int], mu: Optional[int], delta_v: Dict,
                delta_e: Dict, nu: Dict, xi: Dict, nu_default: Optional[frozenset],
                xi_default: Optional[frozenset]) -> "ConstraintSet":
        """A constraint set that takes ownership of the four maps as they are.

        For callers that have already made every check of ``__init__``:
        bounds in range, frozenset values that are non-empty and within
        their bound, ``edge_key`` pair keys, frozenset defaults or None.
        """
        cs = cls.__new__(cls)
        cs.r, cs.lam, cs.mu = r, lam, mu
        cs.delta_v, cs.delta_e, cs.nu, cs.xi = delta_v, delta_e, nu, xi
        cs._set_defaults(nu_default, xi_default)
        return cs

    def _set_defaults(self, nu_default: Optional[frozenset],
                      xi_default: Optional[frozenset]) -> None:
        """Store the defaults, a missing one as the full range of its bound."""
        lam, mu = self.lam, self.mu
        if nu_default is None and lam is not None:
            nu_default = frozenset(range(lam + 1))
        if xi_default is None and mu is not None:
            xi_default = frozenset(range(mu + 1))
        self.nu_default = nu_default
        self.xi_default = xi_default
        self._key = None

    def delta_of_vertex(self, v) -> frozenset:
        try:
            return self.delta_v[v]
        except KeyError:
            raise KeyError(f"no delta list stored for vertex {v!r}") from None

    def delta_of_edge(self, u, v) -> frozenset:
        try:
            return self.delta_e[edge_key(u, v)]
        except KeyError:
            raise KeyError(f"no delta list stored for edge ({u!r},{v!r})") from None

    def nu_of(self, u, v) -> frozenset:
        got = self.nu.get(edge_key(u, v))
        if got is not None:
            return got
        if self.nu_default is None:
            raise KeyError("nu queried on a constraint set without lambda")
        return self.nu_default

    def xi_of(self, u, v) -> frozenset:
        got = self.xi.get(edge_key(u, v))
        if got is not None:
            return got
        if self.xi_default is None:
            raise KeyError("xi queried on a constraint set without mu")
        return self.xi_default

    # -- value plumbing -----------------------------------------------------

    def replace(self, **kw) -> "ConstraintSet":
        base = dict(r=self.r, lam=self.lam, mu=self.mu, delta_v=self.delta_v,
                    delta_e=self.delta_e, nu=self.nu, xi=self.xi,
                    nu_default=self.nu_default, xi_default=self.xi_default)
        base.update(kw)
        return ConstraintSet(**base)

    def key(self) -> tuple:
        if self._key is None:
            def fm(m):
                return tuple(sorted((k, tuple(sorted(s))) for k, s in m.items()))
            self._key = (self.r, self.lam, self.mu, fm(self.delta_v),
                         fm(self.delta_e), fm(self.nu), fm(self.xi),
                         None if self.nu_default is None else tuple(sorted(self.nu_default)),
                         None if self.xi_default is None else tuple(sorted(self.xi_default)))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"ConstraintSet(r={self.r}, lam={self.lam}, mu={self.mu}, "
                f"|delta_v|={len(self.delta_v)}, |delta_e|={len(self.delta_e)})")


class ProblemInstance:
    """A graph, its constraints, the allowed operations, and the budget k.

    WEDCE instances discard isolated vertices on construction (they sit on
    no edge, so no constraint can ever mention them) — this mirrors the
    file loader and keeps instance equality well-defined.  k may be
    negative: kernelization charges deletions against the budget and a
    negative result is an immediate no-instance, not an error.

    Construction refuses, with ValueError, an instance whose checks would
    look up a list that is not there: a vertex (an edge, for WEDCE) with no
    stored delta, or a WERE/WSRE constraint set without lambda (WSRE: mu).
    """

    __slots__ = ("kind", "graph", "constraints", "ops", "k", "_key")

    def __init__(self, kind: str, graph: WeightedGraph, constraints: ConstraintSet,
                 ops: Iterable[str], k: int):
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        ops = frozenset(ops)
        if not ops:
            raise ValueError("ops must be non-empty")
        if not ops <= set(ALL_OPS):
            raise ValueError(f"unknown operations {sorted(ops - set(ALL_OPS))}")
        if kind == WEDCE and EADD in ops:
            raise ValueError("edge addition is ill-defined for WEDCE")
        if kind == WEDCE:
            # read off the edges, so that the graph builds no adjacency
            ends = set(chain.from_iterable(graph.edge_weights()))
            if len(ends) < graph.n:
                graph = graph.subgraph(ends)
            stored, listed = graph.edge_weights().keys(), constraints.delta_e.keys()
            if not stored <= listed:
                raise ValueError(f"no delta list stored for edge {min(stored - listed)!r}")
        else:
            stored, listed = graph.vertex_weights().keys(), constraints.delta_v.keys()
            if not stored <= listed:
                raise ValueError(f"no delta list stored for vertex {min(stored - listed)!r}")
            if kind in (WERE, WSRE) and constraints.lam is None:
                raise ValueError(f"{kind} needs lambda, the bound on nu")
            if kind == WSRE and constraints.mu is None:
                raise ValueError(f"{kind} needs mu, the bound on xi")
        self.kind = kind
        self.graph = graph
        self.constraints = constraints
        self.ops = ops
        self.k = k
        self._key = None

    def replace(self, **kw) -> "ProblemInstance":
        base = dict(kind=self.kind, graph=self.graph, constraints=self.constraints,
                    ops=self.ops, k=self.k)
        base.update(kw)
        return ProblemInstance(**base)

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.kind, self.graph.key(), self.constraints.key(),
                         tuple(sorted(self.ops)), self.k)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"ProblemInstance({self.kind}, n={self.graph.n}, "
                f"m={self.graph.m}, ops={sorted(self.ops)}, k={self.k})")


def star_violation(inst: ProblemInstance) -> Optional[str]:
    """Why ``inst`` is not a *-variant (all consulted lists singletons), or None.

    Checks every list the instance's kind can consult on the current graph,
    including the nu/xi defaults whenever some pair would fall through to
    them.
    """
    cs, g = inst.constraints, inst.graph
    if inst.kind == WEDCE:
        for (u, v) in g.edges():
            if len(cs.delta_of_edge(u, v)) != 1:
                return f"delta({u},{v}) is not a singleton"
        return None
    for v in g.vertices():
        if len(cs.delta_of_vertex(v)) != 1:
            return f"delta({v}) is not a singleton"
    if inst.kind in (WERE, WSRE):
        stored = cs.nu
        if any(edge_key(u, v) not in stored for (u, v) in g.edges()):
            if len(cs.nu_default) != 1:
                return "nu default is not a singleton"
        for e, vals in stored.items():
            if len(vals) != 1:
                return f"nu{e} is not a singleton"
    if inst.kind == WSRE:
        if any(edge_key(u, v) not in cs.xi for (u, v) in g.non_adjacent_pairs()):
            if len(cs.xi_default) != 1:
                return "xi default is not a singleton"
        for e, vals in cs.xi.items():
            if len(vals) != 1:
                return f"xi{e} is not a singleton"
    return None


# -- instance builders ------------------------------------------------------


def uniform_instance(kind: str, g: WeightedGraph, r: int, k: int, ops: Iterable[str],
                     lam: Optional[int] = None, mu: Optional[int] = None) -> ProblemInstance:
    """Every consulted list is the same singleton: delta={r}, nu={lam},
    xi={mu} (via the defaults)."""
    if kind == WEDCE:
        cs = ConstraintSet(r=r, delta_e={e: {r} for e in g.edges()})
    else:
        cs = ConstraintSet(
            r=r,
            lam=lam if kind in (WERE, WSRE) else None,
            mu=mu if kind == WSRE else None,
            delta_v={v: {r} for v in g.vertices()},
            nu_default={lam} if kind in (WERE, WSRE) else None,
            xi_default={mu} if kind == WSRE else None,
        )
    return ProblemInstance(kind=kind, graph=g, constraints=cs, ops=ops, k=k)


def pinned_lists(kind: str, g: WeightedGraph, near=None) -> Dict[str, dict]:
    """Each list ``kind`` consults on ``g`` pinned to the singleton of its
    current measure, by ``ConstraintSet`` map name (delta_v, delta_e, nu,
    xi); with a vertex set ``near``, only the elements with an end in it."""
    m = measures(g.vertices(), g.edges(), g.edge_weights(), kind)

    def pin(keys, vals, pairs=True):
        # a vertex id may itself be a tuple (line graphs), so only pairs split
        return {x: frozenset((c,)) for x, c in zip(keys, vals) if near is None
                or (x[0] in near or x[1] in near if pairs else x in near)}

    if kind == WEDCE:
        return {"delta_e": pin(m.edges, m.edeg)}
    out = {"delta_v": pin(m.verts, m.wdeg, pairs=False)}
    if kind in (WERE, WSRE):
        out["nu"] = pin(m.edges, m.ecom)
    if kind == WSRE:
        out["xi"] = pin(m.pairs, m.pcom)
    return out


def exact_instance(kind: str, g: WeightedGraph, k: int, ops: Iterable[str]) -> ProblemInstance:
    """Every list pinned to the singleton of g's current measure, so the
    instance holds as-is; r, lambda and mu are the largest pinned values."""
    pins = pinned_lists(kind, g)
    top = {name: max((x for s in lists.values() for x in s), default=0)
           for name, lists in pins.items()}
    lam, mu = top.get("nu"), top.get("xi")
    cs = ConstraintSet(r=top.get("delta_v", top.get("delta_e")), lam=lam, mu=mu,
                       nu_default=None if lam is None else {0},
                       xi_default=None if mu is None else {0}, **pins)
    return ProblemInstance(kind=kind, graph=g, constraints=cs, ops=ops, k=k)


# -- edit scripts -----------------------------------------------------------


def vdel(v) -> tuple:
    return (VDEL, v)


def edel(u, v) -> tuple:
    return (EDEL,) + edge_key(u, v)


def eadd(u, v) -> tuple:
    return (EADD,) + edge_key(u, v)


_OP_RANK = {VDEL: 0, EDEL: 1, EADD: 2}


def step_sort_key(step: tuple) -> tuple:
    return (_OP_RANK[step[0]], step[1:])


def canonical_steps(steps: Iterable[tuple]) -> Tuple[tuple, ...]:
    """vdel before edel before eadd, ids ascending within each kind."""
    return tuple(sorted(steps, key=step_sort_key))


@dataclass(frozen=True)
class EditScript:
    steps: Tuple[tuple, ...]
    cost: int

    @classmethod
    def build(cls, g: WeightedGraph, steps: Iterable[tuple]) -> "EditScript":
        """Validate ``steps`` against ``g`` and price them."""
        steps = tuple(steps)
        return cls(steps, _apply_steps(g, steps)[2])

    def __iter__(self):
        return iter(self.steps)


@dataclass(frozen=True)
class SolveReport:
    """An answer, its witness, the nodes visited and their ``tr`` ceiling."""
    answer: bool
    witness: Optional[EditScript]
    nodes_visited: int
    tree_bound: Optional[int]


def _apply_steps(g: WeightedGraph, steps: Tuple[tuple, ...]):
    """Replay ``steps`` on copies of ``g``'s two weight maps; return the
    edited vertex weights, edge weights and the total cost.  A vertex
    deletion pops only the vertex; the edge entries it strands are never
    edges again, so later steps refuse them and the end drops them."""
    vw = dict(g.vertex_weights())
    ew = dict(g.edge_weights())
    cost = 0
    for i, step in enumerate(steps):
        try:
            op = step[0] if step else None
            ids = 1 if op == VDEL else 2 if op in (EDEL, EADD) else 0
            if not ids:
                raise ValueError(f"unknown operation {op!r}")
            if len(step) != 1 + ids:
                raise ValueError(f"{op} takes {ids} id{'s' * (ids > 1)}, got {len(step) - 1}")
            if op == VDEL:
                v = step[1]
                if v not in vw:
                    raise KeyError(f"no vertex {v!r}")
                cost += vw.pop(v)
            elif op == EDEL:
                e = edge_key(step[1], step[2])
                if e not in ew or e[0] not in vw or e[1] not in vw:
                    raise KeyError(f"no edge {e!r}")
                cost += ew.pop(e)
            else:
                u, v = step[1], step[2]
                if u not in vw or v not in vw:
                    raise KeyError("endpoint missing")
                e = edge_key(u, v)
                if e in ew:
                    raise ValueError(f"edge {e!r} already present")
                if u == v:
                    raise ValueError(f"self-loop at {u!r}")
                ew[e] = 1
                cost += 1
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"illegal edit at step {i} ({step!r}): {exc}") from None
    return vw, {e: w for e, w in ew.items() if e[0] in vw and e[1] in vw}, cost


def apply_edit_script(g: WeightedGraph, script) -> WeightedGraph:
    """Apply an EditScript (or a bare step sequence) to ``g``.

    Vertex deletion takes incident edges with it; illegal steps raise
    ValueError naming the offending index.
    """
    steps = tuple(script.steps if isinstance(script, EditScript) else script)
    vw, ew, cost = _apply_steps(g, steps)
    if isinstance(script, EditScript) and cost != script.cost:
        raise ValueError(f"script declares cost {script.cost} but applies at {cost}")
    return WeightedGraph(vw, ew)


# -- constraint checking ----------------------------------------------------


class Measures(NamedTuple):
    """A graph's measures as parallel sorted tuples: weighted degrees of
    ``verts``; edge degrees and common-neighbour counts of ``edges``;
    common-neighbour counts of the non-adjacent ``pairs``.  None where
    uncomputed."""

    verts: tuple
    wdeg: tuple
    edges: tuple
    edeg: Optional[tuple]
    ecom: Optional[tuple]
    pairs: Optional[tuple]
    pcom: Optional[tuple]


def measures(verts: tuple, edges: tuple, weights: Mapping,
             kind: Optional[str] = None) -> Measures:
    """The measures ``kind`` reads (all of them for None) of the graph on
    sorted ``verts`` and edge keys ``edges``, an edge missing from ``weights``
    being an added one of weight 1; only common counts build neighbour sets."""
    wdeg = dict.fromkeys(verts, 0)
    for e in edges:
        w = weights.get(e, 1)
        wdeg[e[0]] += w
        wdeg[e[1]] += w
    edeg = ecom = pairs = pcom = None
    if kind in (WEDCE, None):
        edeg = tuple([wdeg[u] + wdeg[v] for u, v in edges])
    if kind in (WERE, WSRE, None):
        adj = {v: set() for v in verts}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        ecom = tuple([len(adj[u] & adj[v]) for u, v in edges])
    if kind in (WSRE, None):
        pairs = []
        pcom = []
        for i, u in enumerate(verts):
            nu = adj[u]
            for v in verts[i + 1:]:
                if v not in nu:
                    pairs.append((u, v))
                    pcom.append(len(nu & adj[v]))
        pairs, pcom = tuple(pairs), tuple(pcom)
    return Measures(verts, tuple(wdeg.values()), edges, edeg, ecom, pairs, pcom)


def violations(inst: ProblemInstance, m: Measures) -> Iterator[tuple]:
    """Each constraint of ``inst`` that ``m`` breaks, as ``(v,)`` or ``(u, v)``:
    WEDCE edge degrees; else vertex degrees, then nu on edges (WERE, WSRE),
    then xi on non-adjacent pairs (WSRE)."""
    cs = inst.constraints
    kind = inst.kind
    # A stored list is never empty; on a miss, try the default, then the accessor.
    if kind == WEDCE:
        stored = cs.delta_e.get
        for e, d in zip(m.edges, m.edeg):
            if d not in (stored(e) or cs.delta_of_edge(*e)):
                yield e
        return
    stored = cs.delta_v.get
    for v, d in zip(m.verts, m.wdeg):
        if d not in (stored(v) or cs.delta_of_vertex(v)):
            yield (v,)
    if kind == WDCE:
        return
    stored, default = cs.nu.get, cs.nu_default
    for e, c in zip(m.edges, m.ecom):
        if c not in (stored(e) or default or cs.nu_of(*e)):
            yield e
    if kind == WERE:
        return
    stored, default = cs.xi.get, cs.xi_default
    for p, c in zip(m.pairs, m.pcom):
        if c not in (stored(p) or default or cs.xi_of(*p)):
            yield p


def check_constraints(inst: ProblemInstance, g: WeightedGraph) -> bool:
    """Does the edited graph ``g`` satisfy ``inst``'s constraints?

    ``g`` is expected to be an edited descendant of ``inst.graph``; stored
    constraint lists are looked up under the original (stable) ids.
    """
    m = measures(g.vertices(), g.edges(), g.edge_weights(), inst.kind)
    return next(violations(inst, m), None) is None
