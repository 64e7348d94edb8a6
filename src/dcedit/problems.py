"""Problem instances: constraint sets, edit scripts, and the one checker.

The four problem kinds share one instance model:

* ``WDCE``  — per-vertex degree lists: every vertex's weighted degree must
  land in delta(v).
* ``WEDCE`` — per-edge lists on the weighted edge-degree d(uv) = d(u)+d(v).
* ``WERE``  — vertex lists plus a common-neighbour list nu(u,v) on edges.
* ``WSRE``  — WERE plus a list xi(u,v) on non-adjacent pairs.

``CONSULTED`` is the one statement of which lists each kind consults: per
kind, its list families in checking order, each naming its
``ConstraintSet`` map and default, its ``Measures`` fields, its bound and
its label.  ``ConstraintSet``, ``ProblemInstance``, ``star_violation``, the
instance builders, ``violations``, the file format and the reduction rules
read it.  ``measures`` and ``violations`` are the one definition of what
each kind checks; ``check_constraints``, the oracle and the clean-region
finder read them.  ``pinned_lists`` pins lists to the measures, for
``exact_instance`` and for the reduction rules.  The search trees keep
incremental checks of their own, so the oracle is an independent reference
for them.

Allowed operations are vertex deletion, edge deletion and edge addition
(``vdel``/``edel``/``eadd``); an edit script is billed at the deleted
element's weight, and added edges always carry weight and cost 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class ListFamily:
    """One family of constraint lists: its ``label`` in messages and files,
    the ``ConstraintSet`` map (``store``) and default that hold it (no
    default: every element needs a stored list), the ``Measures`` fields of
    the elements it is kept on and of their measured values, and the
    ``ConstraintSet`` bound its values lie within.  ``on_vertices`` says
    whether the elements are vertices (else vertex pairs).  Each family is
    one of the four rows below, so families compare by identity."""

    label: str
    store: str
    default: Optional[str]
    elements: str
    values: str
    bound: str
    on_vertices: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "on_vertices", self.elements == "verts")


_DELTA_V = ListFamily("delta", "delta_v", None, "verts", "wdeg", "r")
_DELTA_E = ListFamily("delta", "delta_e", None, "edges", "edeg", "r")
_NU = ListFamily("nu", "nu", "nu_default", "edges", "ecom", "lam")
_XI = ListFamily("xi", "xi", "xi_default", "pairs", "pcom", "mu")
FAMILIES = (_DELTA_V, _DELTA_E, _NU, _XI)
_DEFAULTED = tuple(f for f in FAMILIES if f.default)

# kind -> the list families it consults, in the order ``violations`` checks them
CONSULTED = {
    WDCE: (_DELTA_V,),
    WEDCE: (_DELTA_E,),
    WERE: (_DELTA_V, _NU),
    WSRE: (_DELTA_V, _NU, _XI),
}
BOUND_NAMES = {"r": "r", "lam": "lambda", "mu": "mu"}
# ``ConstraintSet``'s fields in its constructor's order: r, the paired
# families' bounds, the four maps, the two defaults
_FIELDS = ("r", *(f.bound for f in _DEFAULTED), *(f.store for f in FAMILIES),
           *(f.default for f in _DEFAULTED))

# a family's elements on a graph, by its ``elements`` field
_ELEMENTS = {"verts": WeightedGraph.vertices, "edges": WeightedGraph.edges,
             "pairs": WeightedGraph.non_adjacent_pairs}


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

    __slots__ = _FIELDS + ("_key",)

    def __init__(self, r: int, lam: Optional[int] = None, mu: Optional[int] = None,
                 delta_v: Optional[Dict] = None, delta_e: Optional[Dict] = None,
                 nu: Optional[Dict] = None, xi: Optional[Dict] = None,
                 nu_default: Optional[Iterable[int]] = None,
                 xi_default: Optional[Iterable[int]] = None):
        if r < 0:
            raise ValueError("r must be non-negative")
        given = {"r": r, "lam": lam, "mu": mu, "delta_v": delta_v, "delta_e": delta_e,
                 "nu": nu, "xi": xi, "nu_default": nu_default, "xi_default": xi_default}
        for f in _DEFAULTED:
            hi = given[f.bound]
            if hi is not None and not 0 <= hi <= r:
                raise ValueError(f"{BOUND_NAMES[f.bound]}={hi} out of range [0..{r}]")
        for f in FAMILIES:
            lists = given[f.store] = _norm_sets(given[f.store] or {}, pair=not f.on_vertices)
            hi = given[f.bound]
            valid = set()  # a few distinct lists are shared by many keys
            for key, vals in lists.items():
                if vals in valid:
                    continue
                if not vals:
                    raise ValueError(f"{f.label}[{key!r}] is empty")
                if hi is None:
                    raise ValueError(f"{f.label}[{key!r}] given without its bound")
                if any(x < 0 or x > hi for x in vals):
                    raise ValueError(f"{f.label}[{key!r}]={sorted(vals)} outside [0..{hi}]")
                valid.add(vals)
        for f in _DEFAULTED:
            if given[f.default] is not None:
                vals = given[f.default] = frozenset(given[f.default])
                hi = given[f.bound]
                if hi is None or not vals or any(x < 0 or x > hi for x in vals):
                    raise ValueError(f"bad {f.label} default")
        self._take(given)

    @classmethod
    def _owning(cls, given: Mapping) -> "ConstraintSet":
        """A constraint set that takes ownership of the fields ``given`` by
        name, maps included, as they are.

        For callers that have already made every check of ``__init__``:
        bounds in range, frozenset values that are non-empty and within
        their bound, ``edge_key`` pair keys, frozenset defaults or None.
        """
        cs = cls.__new__(cls)
        cs._take(given)
        return cs

    def _take(self, given: Mapping) -> None:
        """Store the fields ``given`` by name, a missing default as the full
        range of its bound."""
        self.r, self.lam, self.mu = given["r"], given["lam"], given["mu"]
        self.delta_v, self.delta_e = given["delta_v"], given["delta_e"]
        self.nu, self.xi = given["nu"], given["xi"]
        for f in _DEFAULTED:
            vals, hi = given[f.default], given[f.bound]
            if vals is None and hi is not None:
                vals = frozenset(range(hi + 1))
            setattr(self, f.default, vals)
        self._key = None

    def _list_of(self, f: ListFamily, x) -> frozenset:
        """The list of family ``f`` that ``x`` (a vertex, or a pair in either
        order) consults: its stored list, else ``f``'s default."""
        got = getattr(self, f.store).get(x if f.on_vertices else edge_key(*x))
        if got is None and f.default:
            got = getattr(self, f.default)
            if got is None:
                bound = BOUND_NAMES[f.bound]
                raise KeyError(f"{f.label} queried on a constraint set without {bound}")
        if got is None:
            where = f"vertex {x!r}" if f.on_vertices else f"edge ({x[0]!r},{x[1]!r})"
            raise KeyError(f"no {f.label} list stored for {where}")
        return got

    def delta_of_vertex(self, v) -> frozenset:
        return self._list_of(_DELTA_V, v)

    def delta_of_edge(self, u, v) -> frozenset:
        return self._list_of(_DELTA_E, (u, v))

    def nu_of(self, u, v) -> frozenset:
        return self._list_of(_NU, (u, v))

    def xi_of(self, u, v) -> frozenset:
        return self._list_of(_XI, (u, v))

    # -- value plumbing -----------------------------------------------------

    def replace(self, **kw) -> "ConstraintSet":
        base = {name: getattr(self, name) for name in _FIELDS}
        base.update(kw)
        return ConstraintSet(**base)

    def key(self) -> tuple:
        if self._key is None:
            def canon(x):  # a map or a default as a sorted tuple
                if isinstance(x, dict):
                    return tuple(sorted((k, tuple(sorted(s))) for k, s in x.items()))
                return tuple(sorted(x)) if isinstance(x, frozenset) else x
            self._key = tuple(canon(getattr(self, name)) for name in _FIELDS)
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
        if kind == WEDCE:
            if EADD in ops:
                raise ValueError("edge addition is ill-defined for WEDCE")
            # read off the edges, so that the graph builds no adjacency
            ends = set(chain.from_iterable(graph.edge_weights()))
            if len(ends) < graph.n:
                graph = graph.subgraph(ends)
        for f in CONSULTED[kind]:
            if getattr(constraints, f.bound) is None:
                raise ValueError(f"{kind} needs {BOUND_NAMES[f.bound]}, the bound on {f.label}")
            if f.default is None:
                noun, stored = (("vertex", graph.vertex_weights()) if f.on_vertices
                                else ("edge", graph.edge_weights()))
                stored, listed = stored.keys(), getattr(constraints, f.store).keys()
                if not stored <= listed:
                    missing = min(stored - listed)
                    raise ValueError(f"no {f.label} list stored for {noun} {missing!r}")
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
    for f in CONSULTED[inst.kind]:
        lists = getattr(cs, f.store)
        elements = _ELEMENTS[f.elements](g)
        if f.default is None:  # then every element has a stored list
            for x in elements:
                if len(lists[x]) != 1:
                    where = x if f.on_vertices else f"{x[0]},{x[1]}"
                    return f"{f.label}({where}) is not a singleton"
            continue
        if any(x not in lists for x in elements) and len(getattr(cs, f.default)) != 1:
            return f"{f.label} default is not a singleton"
        for e, vals in lists.items():
            if len(vals) != 1:
                return f"{f.label}{e} is not a singleton"
    return None


# -- instance builders ------------------------------------------------------


def uniform_instance(kind: str, g: WeightedGraph, r: int, k: int, ops: Iterable[str],
                     lam: Optional[int] = None, mu: Optional[int] = None) -> ProblemInstance:
    """Every consulted list is the same singleton: delta={r}, nu={lam},
    xi={mu} (via the defaults)."""
    value = {"r": r, "lam": lam, "mu": mu}
    given = {}
    for f in CONSULTED[kind]:
        x = given[f.bound] = value[f.bound]
        if f.default is None:
            given[f.store] = {e: {x} for e in _ELEMENTS[f.elements](g)}
        elif x is not None:
            given[f.default] = {x}
    return ProblemInstance(kind=kind, graph=g, constraints=ConstraintSet(**given),
                           ops=ops, k=k)


def pinned_lists(kind: str, g: WeightedGraph, near=None) -> Dict[str, dict]:
    """Each list ``kind`` consults on ``g`` pinned to the singleton of its
    current measure, by ``ConstraintSet`` map name (delta_v, delta_e, nu,
    xi); with a vertex set ``near``, only the elements with an end in it."""
    m = measures(g.vertices(), g.edges(), g.edge_weights(), kind)

    def pin(f):
        # a vertex id may itself be a tuple (line graphs), so only pairs split
        keys, vals, vertex = getattr(m, f.elements), getattr(m, f.values), f.on_vertices
        return {x: frozenset((c,)) for x, c in zip(keys, vals) if near is None
                or (x in near if vertex else x[0] in near or x[1] in near)}

    return {f.store: pin(f) for f in CONSULTED[kind]}


def exact_instance(kind: str, g: WeightedGraph, k: int, ops: Iterable[str]) -> ProblemInstance:
    """Every list pinned to the singleton of g's current measure, so the
    instance holds as-is; r, lambda and mu are the largest pinned values."""
    given = pinned_lists(kind, g)
    for f in CONSULTED[kind]:
        given[f.bound] = max((x for s in given[f.store].values() for x in s), default=0)
        if f.default:
            given[f.default] = {0}
    return ProblemInstance(kind=kind, graph=g, constraints=ConstraintSet(**given),
                           ops=ops, k=k)


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
                    raise ValueError(f"no vertex {v!r}")
                cost += vw.pop(v)
            elif op == EDEL:
                e = edge_key(step[1], step[2])
                if e not in ew or e[0] not in vw or e[1] not in vw:
                    raise ValueError(f"no edge {e!r}")
                cost += ew.pop(e)
            else:
                # refused as WeightedGraph.add_edge refuses it
                e = edge_key(step[1], step[2])
                if e[0] == e[1]:
                    raise ValueError(f"self-loop at {e[0]!r}")
                if e[0] not in vw or e[1] not in vw:
                    end = e[0] if e[0] not in vw else e[1]
                    raise ValueError(f"edge {e!r} references missing vertex {end!r}")
                if e in ew:
                    raise ValueError(f"edge {e!r} already present")
                ew[e] = 1
                cost += 1
        except (TypeError, ValueError) as exc:
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
    """Each constraint of ``inst`` that ``m`` breaks, as ``(v,)`` or ``(u, v)``,
    family by family in ``CONSULTED`` order: WEDCE edge degrees; else vertex
    degrees, then nu on edges (WERE, WSRE), then xi on non-adjacent pairs
    (WSRE)."""
    cs = inst.constraints
    for f in CONSULTED[inst.kind]:
        # A stored list is never empty; a miss takes the default, and with
        # none ``_list_of`` raises.
        stored = getattr(cs, f.store).get
        default = f.default and getattr(cs, f.default)
        for x, c in zip(getattr(m, f.elements), getattr(m, f.values)):
            if c not in (stored(x) or default or cs._list_of(f, x)):
                yield (x,) if f.on_vertices else x


def check_constraints(inst: ProblemInstance, g: WeightedGraph) -> bool:
    """Does the edited graph ``g`` satisfy ``inst``'s constraints?

    ``g`` is expected to be an edited descendant of ``inst.graph``; stored
    constraint lists are looked up under the original (stable) ids.
    """
    m = measures(g.vertices(), g.edges(), g.edge_weights(), inst.kind)
    return next(violations(inst, m), None) is None
