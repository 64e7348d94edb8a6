import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dcedit.graphs import WeightedGraph, cycle, line_graph, random_graph
from dcedit.instance_io import (
    ParseError,
    parse_decomposition,
    parse_instance,
    parse_script,
    serialize_decomposition,
    serialize_instance,
    serialize_script,
)
from dcedit.problems import (
    KINDS,
    ConstraintSet,
    EditScript,
    ProblemInstance,
    VDEL,
    EDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
    apply_edit_script,
    check_constraints,
)

from dcedit.search_tree import solve

from conftest import uniform_instance, weighted_instance

MINIMAL = """\
problem WEDCE
ops vdel edel
k 1
r 3
vertex 0
vertex 1
vertex 2
edge 0 1 delta={3}
edge 1 2 delta={3}
"""


class TestParseInstance:
    def test_minimal_file(self):
        inst = parse_instance(MINIMAL)
        assert inst.kind == WEDCE and inst.k == 1
        assert inst.ops == frozenset({VDEL, EDEL})
        assert inst.graph.vertices() == (0, 1, 2)
        assert inst.graph.edge_weight(0, 1) == 1  # weight defaults to 1
        assert inst.constraints.delta_of_edge(1, 2) == frozenset({3})

    def test_comments_and_blank_lines(self):
        text = "# header\n\nproblem WDCE # trailing\nops vdel\nk 0\nr 1\n" \
               "vertex 4 weight=2 delta={0,1}\n"
        inst = parse_instance(text)
        assert inst.graph.vertex_weight(4) == 2
        assert inst.constraints.delta_of_vertex(4) == frozenset({0, 1})

    def test_range_sets(self):
        text = "problem WDCE\nops vdel\nk 0\nr 4\n" \
               "vertex 0 delta={0..2,4}\n"
        inst = parse_instance(text)
        assert inst.constraints.delta_of_vertex(0) == frozenset({0, 1, 2, 4})

    def test_lambda_mu_default_to_r(self):
        text = "problem WSRE\nops vdel\nk 1\nr 2\n" \
               "vertex 0 delta={2}\nvertex 1 delta={2}\nvertex 2 delta={2}\n" \
               "edge 0 1\nedge 1 2\nedge 0 2\n"
        inst = parse_instance(text)
        assert inst.constraints.lam == 2 and inst.constraints.mu == 2
        # unconstrained pairs fall back to the full range
        assert inst.constraints.nu_of(0, 1) == frozenset({0, 1, 2})

    def test_explicit_pair_constraints_and_defaults(self):
        text = ("problem WERE\nops vdel edel\nk 1\nr 2\nlambda 1\n"
                "default nu {0}\n"
                "vertex 0 delta={1}\nvertex 1 delta={2}\nvertex 2 delta={1}\n"
                "edge 0 1\nedge 1 2\nnu 0 1 {1}\n")
        inst = parse_instance(text)
        assert inst.constraints.nu_of(0, 1) == frozenset({1})
        assert inst.constraints.nu_of(1, 2) == frozenset({0})

    @pytest.mark.parametrize("text,line,needle", [
        ("problem WEDCE\nops vdel\nk 1\nr 1\nwobble 3\n", 5, "wobble"),
        ("problem WDCE\nproblem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0}\n",
         2, "duplicate"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0}\n"
         "vertex 0 delta={0}\n", 6, "duplicate"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0}\n"
         "vertex 1 delta={0}\nedge 0 1\nedge 1 0\n", 8, "duplicate"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0}\nedge 0 0\n",
         6, "self-loop"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0}\nedge 0 7\n",
         6, "undeclared"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 weight=0 delta={0}\n",
         5, "weight"),
        ("problem WERE\nops vdel\nk 0\nr 1\nlambda 2\nvertex 0 delta={0}\n",
         5, "lambda"),
        ("problem WEDCE\nops vdel\nk 0\nr 1\nvertex 0\nvertex 1\nedge 0 1\n",
         7, "delta"),
        ("problem WEDCE\nops vdel\nk 0\nr 2\nvertex 0 delta={1}\n", 5,
         "delta"),
        ("problem WERE\nops vdel\nk 0\nr 1\nmu 1\nvertex 0 delta={0}\n", 5,
         "mu"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nnu 0 1 {0}\nvertex 0 delta={0}\n",
         5, "nu"),
        ("problem WDCE\nops vdel eadd\nk nope\nr 1\nvertex 0 delta={0}\n", 3,
         "integer"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={2..0}\n", 5,
         "range"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={}\n", 5, "empty"),
        ("problem WDCE\nops fly\nk 0\nr 1\nvertex 0 delta={0}\n", 2,
         "subset"),
    ])
    def test_diagnostics_carry_line_numbers(self, text, line, needle):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == line
        assert f"line {line}:" in str(exc.value)
        assert needle in str(exc.value)

    def test_missing_directive(self):
        with pytest.raises(ParseError, match="problem"):
            parse_instance("ops vdel\nk 0\nr 1\n")

    def test_instance_level_failures_still_reported(self):
        # every line is well-formed, but WEDCE refuses the ops line's eadd,
        # which is checked last and blamed on that line
        text = "problem WEDCE\nops vdel eadd\nk 0\nr 1\nvertex 0\n"
        with pytest.raises(ParseError, match="line 2: edge addition is ill-defined"):
            parse_instance(text)

    @pytest.mark.parametrize("text,message", [
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0..1000000000}\n",
         "line 5: delta range 0..1000000000 outside [0..1]"),
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0,-3..1}\n",
         "line 5: delta range -3..1 outside [0..1]"),
        ("problem WERE\nops vdel\nk 0\nr 2\nlambda 1\nvertex 0 delta={0}\n"
         "vertex 1 delta={0}\nnu 0 1 {0..9999999999}\n",
         "line 8: nu range 0..9999999999 outside [0..1]"),
        # a range inside the bound keeps the message that lists the values
        ("problem WDCE\nops vdel\nk 0\nr 1\nvertex 0 delta={0..1,5}\n",
         "line 5: delta values [0, 1, 5] outside [0..1]"),
    ])
    def test_range_checked_against_its_bound_before_it_is_built(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert str(exc.value) == message


def _contents(inst):
    """Everything an instance holds.  ``==`` on instances compares ``key()``,
    which leaves out the adjacency."""
    g, cs = inst.graph, inst.constraints
    return (inst.kind, inst.ops, inst.k, dict(g.adjacency()), dict(g.vertex_weights()),
            dict(g.edge_weights()), cs.r, cs.lam, cs.mu, cs.delta_v, cs.delta_e,
            cs.nu, cs.xi, cs.nu_default, cs.xi_default)


def assert_built_as_public(parsed, source):
    """``parsed`` holds what the public constructors build from its maps, and
    what ``source`` holds."""
    g, cs = parsed.graph, parsed.constraints
    rebuilt = ProblemInstance(
        parsed.kind, WeightedGraph(dict(g.vertex_weights()), dict(g.edge_weights())),
        ConstraintSet(r=cs.r, lam=cs.lam, mu=cs.mu, delta_v=cs.delta_v,
                      delta_e=cs.delta_e, nu=cs.nu, xi=cs.xi,
                      nu_default=cs.nu_default, xi_default=cs.xi_default),
        parsed.ops, parsed.k)
    assert _contents(parsed) == _contents(rebuilt) == _contents(source)


class TestSerializeInstance:
    def test_canonical_golden(self):
        g = WeightedGraph({0: 1, 1: 1, 2: 1}, {(0, 1): 1, (1, 2): 1})
        cs = ConstraintSet(r=3, delta_e={(0, 1): {3}, (1, 2): {3}})
        inst = ProblemInstance(WEDCE, g, cs, {VDEL, EDEL}, 1)
        assert serialize_instance(inst) == (
            "problem WEDCE\nops vdel edel\nk 1\nr 3\n"
            "vertex 0 weight=1\nvertex 1 weight=1\nvertex 2 weight=1\n"
            "edge 0 1 weight=1 delta={3}\nedge 1 2 weight=1 delta={3}\n"
        )

    def test_round_trip_assorted(self, c5, k4, pete):
        fixtures = [
            uniform_instance(WEDCE, c5, r=4, k=2, ops={VDEL, EDEL}),
            uniform_instance(WDCE, k4, r=3, k=1, ops={VDEL}),
            uniform_instance(WERE, c5, r=2, k=0, ops={VDEL}, lam=0),
            uniform_instance(WSRE, pete, r=3, k=3, ops={VDEL, EDEL},
                             lam=0, mu=1),
        ]
        for inst in fixtures:
            again = parse_instance(serialize_instance(inst))
            assert again == inst
            assert_built_as_public(again, inst)

    def test_non_integer_ids_refused(self):
        # a line graph names its vertices by edges of the graph it came from;
        # written out, "vertex (0, 1)" would not parse back
        inst = uniform_instance(WDCE, line_graph(cycle(4)), r=2, k=0, ops={VDEL})
        with pytest.raises(ValueError, match=r"vertex id \(0, 1\) is not an integer"):
            serialize_instance(inst)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 6))
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 7), rng.random(),
                         seed=rng.randrange(10 ** 6))
        for v in g.vertices():
            g = g.set_vertex_weight(v, rng.randint(1, 4))
        for e in g.edges():
            g = g.set_edge_weight(*e, rng.randint(1, 3))
        r = rng.randint(1, 4)
        inst = uniform_instance(rng.choice([WDCE, WERE]), g, r=r,
                                k=rng.randint(0, 4), ops={VDEL, EDEL},
                                lam=rng.randint(0, r))
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        assert serialize_instance(again) == serialize_instance(inst)


_SET = re.compile(r"\{([^{}]*)\}")


def _as_ranges(text):
    """Each run of consecutive values written as ``a..b``."""
    def runs(m):
        vals = sorted(int(x) for x in m.group(1).split(","))
        parts, start = [], vals[0]
        for prev, x in zip(vals, vals[1:] + [None]):
            if x != prev + 1:
                parts.append(str(start) if start == prev else f"{start}..{prev}")
                start = x
        return "{" + ",".join(parts) + "}"
    return _SET.sub(runs, text)


def _spaced(text):
    return _SET.sub(lambda m: "{ " + m.group(1).replace(",", " , ")
                    .replace("..", " .. ") + " }", text)


def _commented(text):
    lines = [f"{line}  # was {{{i}}}" for i, line in enumerate(text.splitlines())]
    return "# seeded instance\n\n" + "\n".join(lines) + "\n"


class TestTokenizerBranches:
    """Serialized files take the plain ``str.split`` path; whitespace inside
    braces and comments take the regex path.  Both give the same instance,
    holding what the public constructors build."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_and_layouts(self, kind, seed):
        inst = weighted_instance(kind, seed)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text
        assert_built_as_public(again, inst)
        ranged = _as_ranges(text)
        assert ".." in ranged
        for variant in (ranged, _spaced(text), _spaced(ranged), _commented(ranged),
                        ranged.replace(" ", "\t").replace("\n", "\r\n")):
            again = parse_instance(variant)
            assert again == inst
            assert_built_as_public(again, inst)


class TestDecompositionFiles:
    GOLDEN = "s td 2 2 3\nb 0 0 1\nb 1 1 2\n0 1\n"

    def test_parse_golden(self):
        td = parse_decomposition(self.GOLDEN)
        assert td.bags == {0: frozenset({0, 1}), 1: frozenset({1, 2})}
        assert td.tree == ((0, 1),) and td.width == 1

    def test_serialize_round_trip(self):
        td = parse_decomposition(self.GOLDEN)
        assert serialize_decomposition(td) == self.GOLDEN
        assert parse_decomposition(serialize_decomposition(td)) == td

    def test_comment_lines_skipped(self):
        td = parse_decomposition("c made by hand\n" + self.GOLDEN)
        assert td.width == 1

    @pytest.mark.parametrize("mutation,needle", [
        ("s td 3 2 3", "bag"),        # header promises 3 bags
        ("s td 2 5 3", "width"),      # width+1 disagrees with max bag
        ("s td 2 2 9", "vertices"),   # vertex count disagrees
    ])
    def test_header_mismatches(self, mutation, needle):
        text = self.GOLDEN.replace("s td 2 2 3", mutation)
        with pytest.raises(ParseError, match=needle):
            parse_decomposition(text)

    def test_duplicate_bag_rejected(self):
        text = "s td 2 2 3\nb 0 0 1\nb 0 1 2\n0 0\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_decomposition(text)

    def test_unknown_bag_in_tree_edge(self):
        text = "s td 2 2 3\nb 0 0 1\nb 1 1 2\n0 7\n"
        with pytest.raises(ParseError, match="bag"):
            parse_decomposition(text)


class TestScriptFiles:
    def test_parse_plain_steps(self):
        assert parse_script("vdel 3\nedel 2 1\neadd 0 4\n") == (
            ("vdel", 3), ("edel", 1, 2), ("eadd", 0, 4))

    def test_leading_answer_line_skipped(self):
        assert parse_script("YES cost=1\nvdel 3\n") == (("vdel", 3),)
        assert parse_script("NO\n") == ()

    def test_answer_line_only_skipped_at_the_top(self):
        with pytest.raises(ParseError):
            parse_script("vdel 1\nYES cost=1\n")

    def test_arity_errors(self):
        with pytest.raises(ParseError, match="one vertex"):
            parse_script("vdel 1 2\n")
        with pytest.raises(ParseError, match="two vertex"):
            parse_script("edel 1\n")
        with pytest.raises(ParseError, match="unknown"):
            parse_script("explode 1\n")

    def test_serialize(self, k13):
        script = EditScript.build(k13, (("vdel", 0), ("edel", 1, 3)))
        assert serialize_script(script) == "vdel 0\nedel 1 3\n"
        assert parse_script(serialize_script(script)) == script.steps


# -- lazily built adjacency ---------------------------------------------------

# vertices 4 and 5 sit on no edge
_ISOLATED = WeightedGraph({v: 1 + v % 2 for v in range(6)},
                          {(0, 1): 2, (0, 2): 1, (1, 2): 1, (2, 3): 3})

_WDCE_WITH_ISOLATED = serialize_instance(
    uniform_instance(WDCE, _ISOLATED, r=4, k=1, ops={VDEL}))

_WEDCE_WITH_ISOLATED = MINIMAL + "vertex 7 weight=2\nvertex 9\n"


def _reads(g):
    """What the three adjacency readers give, in their iteration order."""
    return ([(v, list(ns)) for v, ns in g.adjacency().items()],
            [list(g.neighbors(v)) for v in g.vertices()],
            list(g.non_adjacent_pairs()))


def _identity(g):
    return g.key(), hash(g)


def _expected(g):
    """The neighbour sets and non-adjacent pairs, worked out here from the
    weight maps alone."""
    adj = {v: set() for v in g.vertex_weights()}
    for u, v in g.edge_weights():
        adj[u].add(v)
        adj[v].add(u)
    vs = sorted(adj)
    return adj, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if v not in adj[u]]


class TestLazyAdjacency:
    # parse_instance hands its maps to WeightedGraph._owning, and a graph
    # builds its adjacency when it is first read; the parsed graph must read
    # as its weight maps say and as the graph __init__ builds from the same
    # maps, before that read and after it

    FILES = [
        *(serialize_instance(weighted_instance(kind, seed))
          for kind in KINDS for seed in range(4)),
        _WDCE_WITH_ISOLATED,
        serialize_instance(uniform_instance(WSRE, _ISOLATED, r=4, k=1, ops={VDEL},
                                            lam=1, mu=1)),
        _WEDCE_WITH_ISOLATED,
    ]

    @pytest.mark.parametrize("first", ["neighbors", "adjacency", "non_adjacent_pairs"])
    @pytest.mark.parametrize("text", FILES)
    def test_reads_as_its_weight_maps_say(self, text, first):
        g = parse_instance(text).graph
        public = WeightedGraph(dict(g.vertex_weights()), dict(g.edge_weights()))
        adj, apart = _expected(g)
        assert g == public and _identity(g) == _identity(public)
        if first == "neighbors":
            assert {v: g.neighbors(v) for v in g.vertices()} == adj
        elif first == "adjacency":
            assert g.adjacency() == adj
        else:
            assert list(g.non_adjacent_pairs()) == apart
        assert g.adjacency() == adj and list(g.non_adjacent_pairs()) == apart
        assert _reads(g) == _reads(public)
        assert g == public and _identity(g) == _identity(public)

    def test_isolated_vertices_kept_outside_wedce(self):
        g = parse_instance(_WDCE_WITH_ISOLATED).graph
        assert g.neighbors(4) == g.neighbors(5) == frozenset()
        assert (4, 5) in set(g.non_adjacent_pairs())
        assert g == _ISOLATED and _reads(g) == _reads(_ISOLATED)

    def test_wedce_isolated_vertex_lines_dropped(self):
        inst = parse_instance(_WEDCE_WITH_ISOLATED)
        assert inst == parse_instance(MINIMAL)
        assert inst.graph.vertices() == (0, 1, 2)
        declared = WeightedGraph({0: 1, 1: 1, 2: 1, 7: 2, 9: 1}, {(0, 1): 1, (1, 2): 1})
        public = ProblemInstance(WEDCE, declared, inst.constraints, inst.ops, inst.k)
        assert inst == public and _reads(inst.graph) == _reads(public.graph)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_no_answer_builds_no_adjacency(self, kind):
        # a tree solve reads the input's weight maps only
        seeds = [seed for seed in range(40)
                 if not solve(weighted_instance(kind, seed).replace(ops={VDEL, EDEL})).answer]
        assert len(seeds) >= 5
        for seed in seeds:
            inst = weighted_instance(kind, seed).replace(ops={VDEL, EDEL})
            parsed = parse_instance(serialize_instance(inst))
            assert solve(parsed) == solve(inst)
            assert parsed.graph._adj is None

    @pytest.mark.parametrize("kind", [WEDCE, WERE])
    def test_a_yes_answer_builds_no_adjacency(self, kind):
        # a YES also prices its witness, by a replay on the weight maps
        insts = [weighted_instance(kind, seed).replace(ops={VDEL, EDEL}, k=6)
                 for seed in range(40)]
        insts = [inst for inst in insts if solve(inst).answer]
        assert len(insts) >= 20
        for inst in insts:
            parsed = parse_instance(serialize_instance(inst))
            report = solve(parsed)
            assert report == solve(inst) and report.witness.steps
            assert parsed.graph._adj is None

    @pytest.mark.parametrize("kind", [WDCE, WEDCE])
    def test_checks_and_replays_build_no_adjacency(self, kind):
        # degree kinds read no common counts, so a check needs no neighbour sets
        for seed in range(16):
            inst = weighted_instance(kind, seed)
            parsed = parse_instance(serialize_instance(inst))
            g = parsed.graph
            steps = [(VDEL, g.vertices()[0])] + [(EDEL,) + e for e in g.edges()[-1:]
                                                 if g.vertices()[0] not in e]
            edited = apply_edit_script(g, steps)
            assert edited == apply_edit_script(inst.graph, steps)
            assert check_constraints(parsed, g) == check_constraints(inst, inst.graph)
            assert check_constraints(parsed, edited) == check_constraints(inst, edited)
            assert g._adj is None and edited._adj is None


# -- pinned diagnostics -----------------------------------------------------

# One malformed file per `raise ParseError` site that parse_instance reaches
# (its helpers included), with the exact message and line it reports.  The
# layout rows put the fault on a line with whitespace inside braces, a
# comment, tabs or CRLF ends.
_WDCE_FILE = ("problem WDCE\nops vdel edel\nk 1\nr 2\n"
              "vertex 0 delta={1}\nvertex 1 delta={1}\nedge 0 1\n")
_WEDCE_FILE = ("problem WEDCE\nops vdel edel\nk 1\nr 2\n"
               "vertex 0\nvertex 1\nedge 0 1 delta={2}\n")
_WERE_FILE = ("problem WERE\nops vdel edel\nk 1\nr 2\nlambda 1\n"
              "vertex 0 delta={1}\nvertex 1 delta={1}\nedge 0 1\nnu 0 1 {0}\n")
_WSRE_FILE = ("problem WSRE\nops vdel edel\nk 1\nr 2\nlambda 1\nmu 1\n"
              "vertex 0 delta={1}\nvertex 1 delta={1}\nvertex 2 delta={0}\n"
              "edge 0 1\nxi 0 2 {0}\n")

PINNED_DIAGNOSTICS = [
    ("unknown_directive", _WDCE_FILE + "wobble 3\n",
     8, "line 8: unknown directive 'wobble'"),
    ("problem_unknown_kind", _WDCE_FILE.replace("problem WDCE", "problem WXYZ"),
     1, 'line 1: problem must be one of WDCE|WEDCE|WERE|WSRE'),
    ("problem_arity", _WDCE_FILE.replace("problem WDCE", "problem WDCE WERE"),
     1, 'line 1: problem must be one of WDCE|WEDCE|WERE|WSRE'),
    ("problem_duplicate", "problem WDCE\n" + _WDCE_FILE,
     2, 'line 2: duplicate `problem` directive'),
    ("ops_unknown", _WDCE_FILE.replace("ops vdel edel", "ops vdel fly"),
     2, 'line 2: ops takes a non-empty subset of: vdel edel eadd'),
    ("ops_empty", _WDCE_FILE.replace("ops vdel edel", "ops"),
     2, 'line 2: ops takes a non-empty subset of: vdel edel eadd'),
    ("k_arity", _WDCE_FILE.replace("k 1", "k 1 2"),
     3, 'line 3: `k` takes one integer'),
    ("k_not_integer", _WDCE_FILE.replace("k 1", "k nope"),
     3, "line 3: expected integer, got 'nope'"),
    ("r_negative", _WDCE_FILE.replace("r 2", "r -1"),
     4, 'line 4: r must be non-negative'),
    ("missing_problem", _WDCE_FILE.replace("problem WDCE\n", ""),
     None, 'missing `problem` directive'),
    ("missing_ops", _WDCE_FILE.replace("ops vdel edel\n", ""),
     None, 'missing `ops` directive'),
    ("missing_k", _WDCE_FILE.replace("k 1\n", ""),
     None, 'missing `k` directive'),
    ("missing_r", _WDCE_FILE.replace("r 2\n", ""),
     None, 'missing `r` directive'),
    ("vertex_no_id", _WDCE_FILE + "vertex\n",
     8, 'line 8: vertex needs an id'),
    ("vertex_id_not_integer", _WDCE_FILE + "vertex x delta={1}\n",
     8, "line 8: expected vertex id, got 'x'"),
    ("vertex_duplicate", _WDCE_FILE + "vertex 1 delta={2}\n",
     8, 'line 8: duplicate vertex 1'),
    ("kv_unknown_key", _WDCE_FILE + "vertex 2 colour=red\n",
     8, "line 8: expected weight=... or delta={...}, got 'colour=red'"),
    ("kv_bare_token", _WDCE_FILE + "vertex 2 delta\n",
     8, "line 8: expected weight=... or delta={...}, got 'delta'"),
    ("kv_duplicate_weight", _WDCE_FILE + "vertex 2 weight=1 weight=2 delta={0}\n",
     8, 'line 8: duplicate weight='),
    ("kv_duplicate_delta", _WDCE_FILE + "vertex 2 delta={0} delta={1}\n",
     8, 'line 8: duplicate delta='),
    ("weight_not_integer", _WDCE_FILE + "vertex 2 weight=heavy delta={0}\n",
     8, "line 8: expected weight, got 'heavy'"),
    ("set_not_braced", _WDCE_FILE + "vertex 2 delta=0\n",
     8, "line 8: expected a {...} set, got '0'"),
    ("set_element_not_integer", _WDCE_FILE + "vertex 2 delta={0,a}\n",
     8, "line 8: expected set element, got 'a'"),
    ("set_range_bound_not_integer", _WDCE_FILE + "vertex 2 delta={0..x}\n",
     8, "line 8: expected range bound, got 'x'"),
    ("set_descending_range", _WDCE_FILE + "vertex 2 delta={2..0}\n",
     8, "line 8: descending range '2..0'"),
    ("set_empty_element", _WDCE_FILE + "vertex 2 delta={0,,1}\n",
     8, 'line 8: empty element in set'),
    ("set_empty", _WDCE_FILE + "vertex 2 delta={}\n",
     8, 'line 8: empty set'),
    ("edge_arity", _WDCE_FILE + "edge 0\n",
     8, 'line 8: edge needs two endpoint ids'),
    ("edge_id_not_integer", _WDCE_FILE + "edge 0 y\n",
     8, "line 8: expected vertex id, got 'y'"),
    ("edge_self_loop", _WDCE_FILE + "edge 1 1\n",
     8, 'line 8: self-loop at 1'),
    ("edge_duplicate", _WDCE_FILE + "edge 1 0\n",
     8, 'line 8: duplicate edge 1 0'),
    ("edge_kv_unknown_key", _WDCE_FILE.replace("edge 0 1", "edge 0 1 colour=red"),
     7, "line 7: expected weight=... or delta={...}, got 'colour=red'"),
    ("nu_arity", _WERE_FILE + "nu 0 1\n",
     10, 'line 10: `nu` takes: <u> <v> {...}'),
    ("nu_same_vertex", _WERE_FILE + "nu 1 1 {0}\n",
     10, 'line 10: `nu` needs two distinct vertices'),
    ("nu_duplicate", _WERE_FILE + "nu 1 0 {1}\n",
     10, 'line 10: duplicate `nu` entry for 1 0'),
    ("nu_set_not_braced", _WERE_FILE.replace("nu 0 1 {0}", "nu 0 1 0"),
     9, "line 9: expected a {...} set, got '0'"),
    ("xi_id_not_integer", _WSRE_FILE + "xi 1 z {0}\n",
     12, "line 12: expected vertex id, got 'z'"),
    ("default_arity", _WERE_FILE + "default nu\n",
     10, 'line 10: default takes: nu|xi {...}'),
    ("default_unknown_name", _WERE_FILE + "default zeta {0}\n",
     10, 'line 10: default takes: nu|xi {...}'),
    ("default_duplicate", _WERE_FILE + "default nu {0}\ndefault nu {1}\n",
     11, 'line 11: duplicate `default nu`'),
    ("default_set_empty", _WERE_FILE + "default nu {}\n",
     10, 'line 10: empty set'),
    ("lambda_not_applicable", _WDCE_FILE + "lambda 1\n",
     8, 'line 8: `lambda` does not apply to WDCE'),
    ("mu_not_applicable", _WERE_FILE + "mu 1\n",
     10, 'line 10: `mu` does not apply to WERE'),
    ("lambda_out_of_range", _WERE_FILE.replace("lambda 1", "lambda 3"),
     5, 'line 5: lambda=3 out of range [0..2]'),
    ("mu_out_of_range", _WSRE_FILE.replace("mu 1", "mu -1"),
     6, 'line 6: mu=-1 out of range [0..2]'),
    ("nu_not_applicable", _WDCE_FILE + "nu 0 1 {0}\n",
     8, 'line 8: `nu` does not apply to WDCE'),
    ("xi_not_applicable", _WERE_FILE + "xi 0 1 {0}\n",
     10, 'line 10: `xi` does not apply to WERE'),
    ("nu_undeclared_vertex", _WERE_FILE + "nu 0 7 {0}\n",
     10, 'line 10: `nu` references an undeclared vertex'),
    ("xi_undeclared_vertex", _WSRE_FILE + "xi 5 0 {0}\n",
     12, 'line 12: `xi` references an undeclared vertex'),
    ("default_nu_not_applicable", _WDCE_FILE + "default nu {0}\n",
     8, 'line 8: `default nu` does not apply to WDCE'),
    ("default_xi_not_applicable", _WERE_FILE + "default xi {0}\n",
     10, 'line 10: `default xi` does not apply to WERE'),
    ("vertex_weight_zero", _WDCE_FILE + "vertex 2 weight=0 delta={0}\n",
     8, 'line 8: vertex weight must be >= 1, got 0'),
    ("vertex_missing_delta", _WDCE_FILE + "vertex 2 weight=3\n",
     8, 'line 8: WDCE requires delta={...} on vertex 2'),
    ("vertex_delta_not_applicable", _WEDCE_FILE.replace("vertex 1", "vertex 1 delta={1}"),
     6, 'line 6: vertex delta does not apply to WEDCE'),
    ("vertex_delta_out_of_bound", _WDCE_FILE + "vertex 2 delta={0,5}\n",
     8, 'line 8: delta values [0, 5] outside [0..2]'),
    ("vertex_delta_negative", _WDCE_FILE + "vertex 2 delta={-1}\n",
     8, 'line 8: delta values [-1] outside [0..2]'),
    ("edge_undeclared_vertex", _WDCE_FILE + "edge 0 9\n",
     8, 'line 8: edge references an undeclared vertex'),
    ("edge_weight_zero", _WDCE_FILE.replace("edge 0 1", "edge 0 1 weight=0"),
     7, 'line 7: edge weight must be >= 1, got 0'),
    ("edge_missing_delta", _WEDCE_FILE.replace(" delta={2}", ""),
     7, 'line 7: WEDCE requires delta={...} on edge 0 1'),
    ("edge_delta_not_applicable", _WDCE_FILE.replace("edge 0 1", "edge 0 1 delta={1}"),
     7, 'line 7: edge delta does not apply to WDCE'),
    ("edge_delta_out_of_bound", _WEDCE_FILE.replace("delta={2}", "delta={3}"),
     7, 'line 7: delta values [3] outside [0..2]'),
    ("nu_out_of_bound", _WERE_FILE.replace("nu 0 1 {0}", "nu 0 1 {0,2}"),
     9, 'line 9: nu values [0, 2] outside [0..1]'),
    ("xi_out_of_bound", _WSRE_FILE.replace("xi 0 2 {0}", "xi 0 2 {2}"),
     11, 'line 11: xi values [2] outside [0..1]'),
    ("default_nu_out_of_bound", _WERE_FILE + "default nu {4}\n",
     10, 'line 10: default nu values [4] outside [0..1]'),
    ("default_xi_out_of_bound", _WSRE_FILE + "default xi {0,1,2}\n",
     12, 'line 12: default xi values [0, 1, 2] outside [0..1]'),
    ("instance_level", _WEDCE_FILE.replace("ops vdel edel", "ops vdel eadd"),
     2, 'line 2: edge addition is ill-defined for WEDCE'),
    # checks after the line pass run in vertex-id order, not file order
    ("first_error_by_vertex_id",
     _WDCE_FILE + "vertex 9 weight=0 delta={0}\nvertex 3 delta={7}\n",
     9, 'line 9: delta values [7] outside [0..2]'),
    # several faults: each check runs over every family before the next
    # check starts, families in CONSULTED order, so the first fault reported
    # is the earliest check's, whatever the line order
    ("multi_bound_applies_before_range",
     _WERE_FILE.replace("lambda 1", "lambda 5") + "mu 1\n",
     10, 'line 10: `mu` does not apply to WERE'),
    ("multi_nu_entry_before_xi_entry", _WSRE_FILE + "xi 0 9 {0}\nnu 1 8 {0}\n",
     13, 'line 13: `nu` references an undeclared vertex'),
    ("multi_default_nu_before_default_xi",
     _WSRE_FILE + "default xi {5}\ndefault nu {7}\n",
     13, 'line 13: default nu values [7] outside [0..1]'),
    ("multi_vertex_delta_before_nu_values",
     _WERE_FILE.replace("nu 0 1 {0}", "nu 0 1 {5}") + "vertex 2 delta={9}\n",
     10, 'line 10: delta values [9] outside [0..2]'),
    # layout: inner whitespace, comments after sets, tabs, CRLF
    ("inner_spaces_out_of_bound", _WDCE_FILE + "vertex 2 delta={ 0 , 5 }\n",
     8, 'line 8: delta values [0, 5] outside [0..2]'),
    ("inner_spaces_descending", _WDCE_FILE + "vertex 2 delta={ 2 .. 0 }\n",
     8, "line 8: descending range '2..0'"),
    ("inner_spaces_empty_element", _WDCE_FILE + "vertex 2 delta={ 0 , , 1 }\n",
     8, 'line 8: empty element in set'),
    ("comment_after_set", _WDCE_FILE + "vertex 2 delta={4} # four\n",
     8, 'line 8: delta values [4] outside [0..2]'),
    ("comment_holds_the_set", _WDCE_FILE + "vertex 2 # delta={0}\n",
     8, 'line 8: WDCE requires delta={...} on vertex 2'),
    ("comment_inside_braces", _WDCE_FILE + "vertex 2 delta={0 # 1}\n",
     8, "line 8: expected a {...} set, got '{0'"),
    ("tabs", _WDCE_FILE + "vertex\t2\tdelta={0,\t7}\n",
     8, 'line 8: delta values [0, 7] outside [0..2]'),
    ("crlf", (_WERE_FILE + "nu 1 0 {1}\n").replace("\n", "\r\n"),
     10, 'line 10: duplicate `nu` entry for 1 0'),
    ("crlf_missing_directive", _WDCE_FILE.replace("k 1\n", "").replace("\n", "\r\n"),
     None, 'missing `k` directive'),
]


@pytest.mark.parametrize("text,line,message",
                         [row[1:] for row in PINNED_DIAGNOSTICS],
                         ids=[row[0] for row in PINNED_DIAGNOSTICS])
def test_pinned_diagnostics(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert (exc.value.line, str(exc.value)) == (line, message)
