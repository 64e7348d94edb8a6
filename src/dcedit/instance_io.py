"""Text formats: instance files, PACE-style tree decompositions, edit scripts.

Instance files are line-oriented: ``#`` starts a comment, tokens are
whitespace-separated, and ``{...}`` sets hold comma-separated integers or
``a..b`` ranges.  Besides its ``problem``, ``ops``, ``k``, ``r``, ``vertex``
and ``edge`` lines, a file carries the lines of the lists its kind consults
(``problems.CONSULTED``) and no other: ``delta=`` on every ``vertex`` line
(WDCE, WERE, WSRE) or every ``edge`` line (WEDCE); ``lambda``, ``nu`` and
``default nu`` lines for WERE and WSRE; ``mu``, ``xi`` and ``default xi``
lines for WSRE only.  Serialization is canonical — fixed directive order,
sorted ids, plain comma sets — so equal instances produce identical bytes
and every serialized instance parses back to an equal instance.  Vertex ids
are integers in the file, so ``serialize_instance`` refuses an instance with
any other id (a line graph's tuple ids, say) with a ``ValueError``.

``parse_instance`` reads the lines once, checking each on its own, then
checks what they declare against each other in a fixed order: each check
runs over every family, in ``CONSULTED`` order, before the next starts, so
the first fault reported does not depend on how the file is laid out.  Text
with no comment and no whitespace inside braces, which is all text the
serializers write, is split with ``str.split`` alone; the regex that
closes up spaced sets runs only on lines that need it.  A file repeats a
few set tokens and ``weight=``/``delta=`` tails many times, so each
distinct one is parsed once per file, and each distinct list is
range-checked once per family.  An ``a..b`` range is expanded only after
both ends are checked against its bound (r, lambda or mu), so a range far
past the bound is refused without being built.  These checks are all the
checks ``WeightedGraph`` and ``ConstraintSet`` make, so the parser hands the
maps it built to their ``_owning`` constructors, which take them without a
second check or copy.  ``ProblemInstance`` still runs its own checks, but
the parser makes each of them first, the last being that a WEDCE file's
``ops`` line allows no ``eadd``, so every fault a file can hold is reported
with its line.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple

from .graphs import WeightedGraph, edge_key
from .problems import (
    BOUND_NAMES,
    CONSULTED,
    EADD,
    EDEL,
    KINDS,
    VDEL,
    WEDCE,
    ConstraintSet,
    EditScript,
    ProblemInstance,
    _DEFAULTED,
    _DELTA_E,
    _DELTA_V,
    _OP_RANK,
)
from .treewidth import TreeDecomposition


class ParseError(ValueError):
    def __init__(self, line: Optional[int], msg: str):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


# the lines that carry one integer: the budget k and the bounds r, lambda, mu
_INT_LINES = ("k", *BOUND_NAMES.values())
_SET_RE = re.compile(r"\{[^{}]*\}")
_SPACED_SET_RE = re.compile(r"\{[^{}]*\s[^{}]*\}")


def _squeeze(m: re.Match) -> str:
    return "".join(m.group(0).split())


def _tokenize(raw: str) -> List[str]:
    """The tokens of one line, without its comment; a ``{...}`` set with
    whitespace inside stays one token."""
    if "#" in raw or "{" in raw and _SPACED_SET_RE.search(raw):
        raw = _SET_RE.sub(_squeeze, raw.split("#", 1)[0])
    return raw.split()


def _token_lines(text: str) -> Iterator[List[str]]:
    """``_tokenize`` of each line of ``text``.  A text with no comment and
    no spaced set anywhere, which is every text ``serialize_*`` writes, needs
    only ``str.split`` on each line."""
    lines = text.splitlines()
    if "#" in text or "{" in text and _SPACED_SET_RE.search(text):
        return map(_tokenize, lines)
    return map(str.split, lines)


def _int(tok: str, ln: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(ln, f"expected {what}, got {tok!r}") from None


def _parse_set(tok: str, ln: int) -> Tuple[frozenset, Tuple[Tuple[int, int], ...]]:
    """The syntax of one ``{...}`` token: its single elements and its
    ``a..b`` ranges.  A range is expanded only by ``_bounded_set``, after
    its ends are checked against the bound that applies."""
    if not (tok.startswith("{") and tok.endswith("}")):
        raise ParseError(ln, f"expected a {{...}} set, got {tok!r}")
    singles, ranges = set(), []
    inner = tok[1:-1]
    for part in inner.split(",") if inner else ():
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            lo, hi = _int(lo_s, ln, "range bound"), _int(hi_s, ln, "range bound")
            if hi < lo:
                raise ParseError(ln, f"descending range {part!r}")
            ranges.append((lo, hi))
        elif part:
            singles.add(_int(part, ln, "set element"))
        else:
            raise ParseError(ln, "empty element in set")
    if not singles and not ranges:
        raise ParseError(ln, "empty set")
    return frozenset(singles), tuple(ranges)


def _bounded_set(spec, hi: int, ln: int, what: str) -> frozenset:
    singles, ranges = spec
    for lo, top in ranges:
        if lo < 0 or top > hi:
            raise ParseError(ln, f"{what} range {lo}..{top} outside [0..{hi}]")
    vals = singles.union(*(range(lo, top + 1) for lo, top in ranges))
    if any(x < 0 or x > hi for x in vals):
        raise ParseError(ln, f"{what} values {sorted(vals)} outside [0..{hi}]")
    return vals


def _parse_kv(tokens: Tuple[str, ...], ln: int,
              sets: Dict[str, tuple]) -> Tuple[int, Optional[str]]:
    """``(weight, delta set token)`` of a vertex or edge line's tail; the
    set's syntax lands in ``sets``."""
    weight, delta = None, None
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq or key not in ("weight", "delta"):
            raise ParseError(ln, f"expected weight=... or delta={{...}}, got {tok!r}")
        if key == "weight":
            if weight is not None:
                raise ParseError(ln, "duplicate weight=")
            weight = _int(val, ln, "weight")
        else:
            if delta is not None:
                raise ParseError(ln, "duplicate delta=")
            if val not in sets:
                sets[val] = _parse_set(val, ln)
            delta = val
    return 1 if weight is None else weight, delta


def parse_instance(text: str) -> ProblemInstance:
    directives: Dict[str, Tuple[int, object]] = {}
    verts: Dict[int, Tuple[int, Tuple[int, Optional[str]]]] = {}
    edges: Dict[Tuple[int, int], Tuple[int, Tuple[int, Optional[str]]]] = {}
    # label -> the pair lines of each family with a default (nu, xi), sorted
    # into a list once every line is read
    pairs: Dict[str, Dict[Tuple[int, int], Tuple[int, str]]] = {f.label: {} for f in _DEFAULTED}
    defaults: Dict[str, Tuple[int, str]] = {}
    sets: Dict[str, tuple] = {}  # set token -> its _parse_set
    tails: Dict[tuple, Tuple[int, Optional[str]]] = {}  # line tail -> its _parse_kv

    def set_directive(name: str, value, ln: int):
        if name in directives:
            raise ParseError(ln, f"duplicate `{name}` directive")
        directives[name] = (ln, value)

    def parse_set(tok: str, ln: int) -> str:
        if tok not in sets:
            sets[tok] = _parse_set(tok, ln)
        return tok

    for ln, toks in enumerate(_token_lines(text), start=1):
        if not toks:
            continue
        head = toks[0]
        # Edge, vertex and pair lines are nearly all of a file, so their ids
        # go through int() and the edge key is built inline.
        if head == "edge":
            if len(toks) < 3:
                raise ParseError(ln, "edge needs two endpoint ids")
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                u, v = _int(toks[1], ln, "vertex id"), _int(toks[2], ln, "vertex id")
            if u == v:
                raise ParseError(ln, f"self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ParseError(ln, f"duplicate edge {u} {v}")
            tail = tuple(toks[3:])
            kv = tails.get(tail)
            if kv is None:
                kv = tails[tail] = _parse_kv(tail, ln, sets)
            edges[e] = (ln, kv)
        elif head == "vertex":
            if len(toks) < 2:
                raise ParseError(ln, "vertex needs an id")
            v = _int(toks[1], ln, "vertex id")
            if v in verts:
                raise ParseError(ln, f"duplicate vertex {v}")
            tail = tuple(toks[2:])
            kv = tails.get(tail)
            if kv is None:
                kv = tails[tail] = _parse_kv(tail, ln, sets)
            verts[v] = (ln, kv)
        elif head in pairs:
            if len(toks) != 4:
                raise ParseError(ln, f"`{head}` takes: <u> <v> {{...}}")
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                u, v = _int(toks[1], ln, "vertex id"), _int(toks[2], ln, "vertex id")
            if u == v:
                raise ParseError(ln, f"`{head}` needs two distinct vertices")
            store = pairs[head]
            e = (u, v) if u < v else (v, u)
            if e in store:
                raise ParseError(ln, f"duplicate `{head}` entry for {u} {v}")
            store[e] = (ln, parse_set(toks[3], ln))
        elif head == "problem":
            if len(toks) != 2 or toks[1] not in KINDS:
                raise ParseError(ln, f"problem must be one of {'|'.join(KINDS)}")
            set_directive("problem", toks[1], ln)
        elif head == "ops":
            rest = toks[1:]
            if not rest or any(op not in (VDEL, EDEL, EADD) for op in rest):
                raise ParseError(ln, "ops takes a non-empty subset of: vdel edel eadd")
            set_directive("ops", frozenset(rest), ln)
        elif head in _INT_LINES:
            if len(toks) != 2:
                raise ParseError(ln, f"`{head}` takes one integer")
            set_directive(head, _int(toks[1], ln), ln)
        elif head == "default":
            if len(toks) != 3 or toks[1] not in pairs:
                raise ParseError(ln, f"default takes: {'|'.join(pairs)} {{...}}")
            if toks[1] in defaults:
                raise ParseError(ln, f"duplicate `default {toks[1]}`")
            defaults[toks[1]] = (ln, parse_set(toks[2], ln))
        else:
            raise ParseError(ln, f"unknown directive {head!r}")

    for name in ("problem", "ops", "k", "r"):
        if name not in directives:
            raise ParseError(None, f"missing `{name}` directive")
    kind, ops, k = directives["problem"][1], directives["ops"][1], directives["k"][1]
    r_line, r = directives["r"]
    if r < 0:
        raise ParseError(r_line, "r must be non-negative")
    consulted = CONSULTED[kind]
    # ConstraintSet's fields by name.  Each check below runs over every
    # family before the next one starts, so the first fault does not depend
    # on the line order.
    given = {"r": r}
    for f in _DEFAULTED:
        name = BOUND_NAMES[f.bound]
        if name in directives and f not in consulted:
            raise ParseError(directives[name][0], f"`{name}` does not apply to {kind}")
    for f in _DEFAULTED:
        name = BOUND_NAMES[f.bound]
        ln, hi = directives.get(name, (None, r if f in consulted else None))
        if hi is not None and not 0 <= hi <= r:
            raise ParseError(ln, f"{name}={hi} out of range [0..{r}]")
        given[f.bound] = hi
    for f in _DEFAULTED:
        items = pairs[f.label] = sorted(pairs[f.label].items())
        if items and f not in consulted:
            raise ParseError(items[0][1][0], f"`{f.label}` does not apply to {kind}")
        for (u, v), (ln, _) in items:
            if u not in verts or v not in verts:
                raise ParseError(ln, f"`{f.label}` references an undeclared vertex")
        if f.label in defaults and f not in consulted:
            raise ParseError(defaults[f.label][0],
                             f"`default {f.label}` does not apply to {kind}")

    # each family checks a set token against its bound once: a checked set
    # is never empty, so ``known.get(tok) or known.setdefault(...)`` checks
    # only a token that ``known`` does not hold yet
    known: Dict[str, frozenset] = {}
    for f, noun, lines in ((_DELTA_V, "vertex", verts), (_DELTA_E, "edge", edges)):
        on_edges, used = lines is edges, f in consulted
        lists = given[f.store] = {}
        for x, (ln, (w, delta)) in sorted(lines.items()):
            if on_edges and (x[0] not in verts or x[1] not in verts):
                raise ParseError(ln, "edge references an undeclared vertex")
            if w < 1:
                raise ParseError(ln, f"{noun} weight must be >= 1, got {w}")
            if delta is None:
                if used:
                    where = f"{x[0]} {x[1]}" if on_edges else x
                    raise ParseError(ln, f"{kind} requires delta={{...}} on {noun} {where}")
            elif not used:
                raise ParseError(ln, f"{noun} delta does not apply to {kind}")
            else:
                lists[x] = known.get(delta) or known.setdefault(
                    delta, _bounded_set(sets[delta], r, ln, "delta"))
    for f in _DEFAULTED:
        hi, known = given[f.bound], {}
        lists = given[f.store] = {}
        for e, (ln, tok) in pairs[f.label]:
            lists[e] = known.get(tok) or known.setdefault(
                tok, _bounded_set(sets[tok], hi, ln, f.label))
    for f in _DEFAULTED:
        ln, tok = defaults.get(f.label, (None, None))
        given[f.default] = tok and _bounded_set(sets[tok], given[f.bound], ln,
                                                f"default {f.label}")
    if kind == WEDCE and EADD in ops:
        raise ParseError(directives["ops"][0], "edge addition is ill-defined for WEDCE")
    graph = WeightedGraph._owning({v: w for v, (_, (w, _)) in verts.items()},
                                  {e: w for e, (_, (w, _)) in edges.items()})
    return ProblemInstance(kind=kind, graph=graph, constraints=ConstraintSet._owning(given),
                           ops=ops, k=k)


def _fmt_set(vals) -> str:
    return "{" + ",".join(str(x) for x in sorted(vals)) + "}"


def serialize_instance(inst: ProblemInstance) -> str:
    cs, g = inst.constraints, inst.graph
    for v in g.vertex_weights():
        if type(v) is not int:  # bool included: the parser reads ints only
            raise ValueError(f"vertex id {v!r} is not an integer; "
                             "instance files name vertices by integers")
    families = CONSULTED[inst.kind]
    # the families with a default are written as pair lines under their own bound
    paired = [f for f in families if f.default]
    lines = [
        f"problem {inst.kind}",
        "ops " + " ".join(sorted(inst.ops, key=_OP_RANK.__getitem__)),
        f"k {inst.k}",
        f"r {cs.r}",
    ]
    for f in paired:
        lines.append(f"{BOUND_NAMES[f.bound]} {getattr(cs, f.bound)}")
    for f in paired:
        lines.append(f"default {f.label} {_fmt_set(getattr(cs, f.default))}")
    for f, noun, weights in ((_DELTA_V, "vertex", g.vertex_weights()),
                             (_DELTA_E, "edge", g.edge_weights())):
        lists = getattr(cs, f.store) if f in families else None
        for x in sorted(weights):
            ids = x if f.on_vertices else f"{x[0]} {x[1]}"
            delta = "" if lists is None else f" delta={_fmt_set(lists[x])}"
            lines.append(f"{noun} {ids} weight={weights[x]}{delta}")
    for f in paired:
        for (u, v), vals in sorted(getattr(cs, f.store).items()):
            lines.append(f"{f.label} {u} {v} {_fmt_set(vals)}")
    return "\n".join(lines) + "\n"


# -- tree decompositions ----------------------------------------------------


def parse_decomposition(text: str) -> TreeDecomposition:
    header: Optional[Tuple[int, int, int, int]] = None
    bags: Dict[int, frozenset] = {}
    tree: List[Tuple[int, int]] = []
    edge_lines: List[int] = []
    for ln, toks in enumerate(_token_lines(text), start=1):
        if not toks or toks[0] == "c":
            continue
        if toks[0] == "s":
            if header is not None:
                raise ParseError(ln, "duplicate header")
            if len(toks) != 5 or toks[1] != "td":
                raise ParseError(ln, "header must be: s td <#bags> <width+1> <#vertices>")
            header = (ln, _int(toks[2], ln), _int(toks[3], ln), _int(toks[4], ln))
        elif toks[0] == "b":
            if header is None:
                raise ParseError(ln, "bag line before header")
            if len(toks) < 2:
                raise ParseError(ln, "bag line needs an id")
            bid = _int(toks[1], ln, "bag id")
            if bid in bags:
                raise ParseError(ln, f"duplicate bag {bid}")
            bags[bid] = frozenset(_int(t, ln, "vertex id") for t in toks[2:])
        else:
            if header is None:
                raise ParseError(ln, "edge line before header")
            if len(toks) != 2:
                raise ParseError(ln, "tree edge line needs two bag ids")
            tree.append((_int(toks[0], ln), _int(toks[1], ln)))
            edge_lines.append(ln)
    if header is None:
        raise ParseError(None, "missing `s td` header")
    hline, nbags, wplus1, nverts = header
    if len(bags) != nbags:
        raise ParseError(hline, f"header declares {nbags} bags, found {len(bags)}")
    max_bag = max((len(b) for b in bags.values()), default=0)
    if max_bag != wplus1:
        raise ParseError(hline, f"header declares width+1={wplus1}, bags reach {max_bag}")
    union = set().union(*bags.values()) if bags else set()
    if len(union) != nverts:
        raise ParseError(hline, f"header declares {nverts} vertices, bags hold {len(union)}")
    for (i, j), ln in zip(tree, edge_lines):
        if i not in bags or j not in bags:
            raise ParseError(ln, f"tree edge {i} {j} references an unknown bag")
    return TreeDecomposition(bags, tuple(tree))


def serialize_decomposition(td: TreeDecomposition) -> str:
    union = set().union(*td.bags.values()) if td.bags else set()
    max_bag = max((len(b) for b in td.bags.values()), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {len(union)}"]
    for bid in sorted(td.bags):
        lines.append(" ".join(["b", str(bid)] + [str(v) for v in sorted(td.bags[bid])]))
    for (i, j) in sorted(tuple(sorted(e)) for e in td.tree):
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


# -- edit scripts -----------------------------------------------------------


def parse_script(text: str) -> Tuple[tuple, ...]:
    """Edit steps, one per line; a leading `YES .../NO` answer line is
    skipped so `solve` output can be fed straight back in."""
    steps: List[tuple] = []
    first_content = True
    for ln, toks in enumerate(_token_lines(text), start=1):
        if not toks:
            continue
        if first_content and toks[0] in ("YES", "NO"):
            first_content = False
            continue
        first_content = False
        op = toks[0]
        if op == VDEL:
            if len(toks) != 2:
                raise ParseError(ln, "vdel takes one vertex id")
            steps.append((VDEL, _int(toks[1], ln, "vertex id")))
        elif op in (EDEL, EADD):
            if len(toks) != 3:
                raise ParseError(ln, f"{op} takes two vertex ids")
            steps.append((op,) + edge_key(_int(toks[1], ln, "vertex id"),
                                          _int(toks[2], ln, "vertex id")))
        else:
            raise ParseError(ln, f"unknown edit {op!r}")
    return tuple(steps)


def serialize_script(script: EditScript) -> str:
    return "".join(" ".join(str(t) for t in step) + "\n" for step in script.steps)
