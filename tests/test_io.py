import random

import pytest
from hypothesis import given, settings, strategies as st

from dcedit.graphs import WeightedGraph, random_graph
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
    ConstraintSet,
    EditScript,
    ProblemInstance,
    VDEL,
    EDEL,
    WDCE,
    WEDCE,
    WERE,
    WSRE,
)

from conftest import uniform_instance

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
        # every line is well-formed, but the assembled instance is illegal
        text = "problem WEDCE\nops vdel eadd\nk 0\nr 1\nvertex 0\n"
        with pytest.raises(ParseError, match="ill-defined"):
            parse_instance(text)


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
            assert parse_instance(serialize_instance(inst)) == inst

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
