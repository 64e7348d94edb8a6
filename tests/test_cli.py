"""End-to-end checks of the command line through run_cli.

Every invocation goes through the real argument parser and prints through
the real writers; tests capture stdout/stderr with capsys and files live
in tmp_path.
"""

import argparse
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import dcedit
from dcedit import cli
from dcedit.cli import run_cli
from dcedit.instance_io import (
    ParseError,
    parse_decomposition,
    parse_instance,
    parse_script,
    serialize_decomposition,
    serialize_instance,
)
from dcedit.oracle import brute_force_solve
from dcedit.problems import KINDS
from dcedit.search_tree import tr
from dcedit.treewidth import greedy_decomposition

from conftest import weighted_instance

K13 = """\
problem WEDCE
ops vdel edel
k 1
r 3
vertex 0
vertex 1
vertex 2
vertex 3
edge 0 3 delta={3}
edge 1 3 delta={3}
edge 2 3 delta={3}
"""


@pytest.fixture
def k13_file(tmp_path):
    p = tmp_path / "k13.wedce"
    p.write_text(K13)
    return str(p)


class TestSolve:
    def test_yes_with_witness(self, k13_file, capsys):
        assert run_cli(["solve", k13_file]) == 0
        out = capsys.readouterr().out
        assert out == "YES cost=1\nvdel 0\n"

    def test_no(self, tmp_path, capsys):
        p = tmp_path / "no.wedce"
        p.write_text(K13.replace("k 1", "k 0"))
        assert run_cli(["solve", str(p)]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_stats_go_to_stderr(self, k13_file, capsys):
        assert run_cli(["solve", k13_file, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "nodes_visited=" in captured.err
        assert "tree_bound=" in captured.err
        assert "nodes_visited" not in captured.out

    @pytest.mark.parametrize("holds", [False, True], ids=["violated", "holding"])
    def test_negative_budget_is_one_node(self, tmp_path, capsys, holds):
        # a negative budget rejects at the root, even an instance that holds
        text = K13.replace("k 1", "k -1")
        if holds:
            text = text.replace("r 3", "r 4").replace("delta={3}", "delta={4}")
        p = tmp_path / "negative.wedce"
        p.write_text(text)
        assert run_cli(["solve", str(p), "--stats"]) == 1
        assert capsys.readouterr() == ("NO\n", "nodes_visited=1\ntree_bound=1\n")

    def test_large_budget_bound(self, tmp_path, capsys):
        # no search is deeper than the n + m = 3 elements it can delete, so
        # the ceiling is tr(5, 3), not tr(5, 10**8), which took minutes
        p = tmp_path / "edge.wdce"
        p.write_text("problem WDCE\nops vdel edel\nk 100000000\nr 1\n"
                     "vertex 0 weight=1 delta={1}\nvertex 1 weight=1 delta={1}\n"
                     "edge 0 1 weight=1\n")
        start = time.perf_counter()
        assert run_cli(["solve", str(p), "--stats"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("YES cost=0\n", "nodes_visited=1\ntree_bound=156\n")

    def test_bound_of_any_size_prints(self, tmp_path, capsys):
        # every edge of a 9,100-vertex path must go; the ceiling tr(3, 9099)
        # has 4,342 digits, more than str() of an int writes (Python 3.11+)
        n = 9100
        lines = ["problem WDCE", "ops edel", f"k {n - 1}", "r 0"]
        lines += [f"vertex {v} weight=1 delta={{0}}" for v in range(n)]
        lines += [f"edge {v} {v + 1} weight=1" for v in range(n - 1)]
        p = tmp_path / "path.wdce"
        p.write_text("\n".join(lines) + "\n")
        assert run_cli(["solve", str(p), "--stats"]) == 0
        nodes, bound = capsys.readouterr().err.splitlines()
        assert nodes == f"nodes_visited={n}"
        assert bound.startswith("tree_bound=") and len(bound) == 11 + 4342
        assert Decimal(bound[11:]) == tr(3, n - 1)

    def test_solve_verify_round_trip(self, k13_file, tmp_path, capsys):
        run_cli(["solve", k13_file])
        script = tmp_path / "fix.script"
        script.write_text(capsys.readouterr().out)
        assert run_cli(["verify", k13_file, str(script)]) == 0
        assert capsys.readouterr().out == "OK cost=1\n"

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.wedce")
        assert run_cli(["solve", path]) == 2
        assert capsys.readouterr() == \
            ("", f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_malformed_file_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "bad.wedce"
        p.write_text("problem WEDCE\nops vdel\nk 1\n")  # no r
        assert run_cli(["solve", str(p)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_rejects_overspent_script(self, k13_file, tmp_path, capsys):
        script = tmp_path / "big.script"
        script.write_text("vdel 0\nvdel 1\n")
        assert run_cli(["verify", k13_file, str(script)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_rejects_illegal_step(self, k13_file, tmp_path, capsys):
        script = tmp_path / "ghost.script"
        script.write_text("vdel 9\n")
        assert run_cli(["verify", k13_file, str(script)]) == 1
        assert "no vertex" in capsys.readouterr().out

    @pytest.mark.parametrize("instance, edit", [
        ("problem WDCE\nops vdel\nk 1\nr 1\nvertex 0 delta={0}\n"
         "vertex 1 delta={0}\nedge 0 1\n", "edel 0 1"),
        (K13, "eadd 0 1"),
    ], ids=["wdce-edel", "wedce-eadd"])
    def test_rejects_disallowed_operation(self, instance, edit, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text(instance)
        script = tmp_path / "edit.script"
        script.write_text(edit + "\n")
        assert run_cli(["verify", str(inst), str(script)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("INVALID: step 0") and out.count("\n") == 1
        assert "does not allow" in out

    def test_rejects_unsatisfying_script(self, k13_file, tmp_path, capsys):
        script = tmp_path / "noop.script"
        script.write_text("")
        assert run_cli(["verify", k13_file, str(script)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "constraints" in out


class TestOracle:
    def test_matches_solve(self, k13_file, capsys):
        assert run_cli(["oracle", k13_file]) == 0
        assert capsys.readouterr().out == "YES cost=1\nvdel 0\n"


class TestKernelize:
    def test_emits_reduced_instance_and_trace(self, tmp_path, capsys):
        p = tmp_path / "star.wedce"
        lines = ["problem WEDCE", "ops vdel edel", "k 1", "r 3"]
        lines += [f"vertex {v}" for v in range(6)]
        lines += [f"edge {v} 5 delta={{3}}" for v in range(5)]
        p.write_text("\n".join(lines) + "\n")
        assert run_cli(["kernelize", str(p)]) == 0
        captured = capsys.readouterr()
        reduced = parse_instance(captured.out)
        assert reduced.graph.vertices() == () and reduced.k == 0
        assert "rule=rr1" in captured.err
        assert "kernel n=0" in captured.err

    def test_fixpoint_instance_passes_through(self, k13_file, capsys):
        assert run_cli(["kernelize", k13_file]) == 0
        captured = capsys.readouterr()
        assert parse_instance(captured.out) == parse_instance(K13)
        assert "rules_fired=0" in captured.err


class TestGen:
    def test_deterministic_output(self, capsys):
        argv = ["gen", "gnp", "6", "0.5", "--kind", "WERE", "--ops",
                "vdel,edel", "--k", "2", "--seed", "7"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first
        inst = parse_instance(first)
        assert inst.kind == "WERE" and inst.k == 2

    def test_families_parse_and_satisfy_constraints(self, capsys):
        # generated instances pin constraints to the graph's true values,
        # so k=0 must always be a yes
        for family, params in [("complete", ["4"]), ("cycle", ["5"]),
                               ("petersen", []), ("gnp", ["5", "0.4"])]:
            for kind in ["WDCE", "WEDCE", "WERE", "WSRE"]:
                argv = ["gen", family, *params, "--kind", kind, "--seed", "3"]
                assert run_cli(argv) == 0
                inst = parse_instance(capsys.readouterr().out)
                assert brute_force_solve(inst).answer

    def test_rejects_bad_params(self, capsys):
        assert run_cli(["gen", "cycle"]) == 2
        assert run_cli(["gen", "gnp", "5"]) == 2
        capsys.readouterr()

    def test_petersen_takes_no_parameters(self, capsys):
        assert run_cli(["gen", "petersen", "3"]) == 2
        assert capsys.readouterr() == ("", "error: petersen takes no parameters\n")


class TestTw:
    def write_graph(self, tmp_path, text):
        p = tmp_path / "g.wdce"
        p.write_text(text)
        return str(p)

    def fixture_c5(self, tmp_path):
        lines = ["problem WDCE", "ops vdel", "k 0", "r 2"]
        lines += [f"vertex {v} delta={{2}}" for v in range(5)]
        lines += [f"edge {v} {(v + 1) % 5}" for v in range(5)]
        return self.write_graph(tmp_path, "\n".join(lines) + "\n")

    def test_induced_mode(self, tmp_path, capsys):
        f = self.fixture_c5(tmp_path)
        assert run_cli(["tw", f, "--mode", "induced", "-r", "2"]) == 0
        assert capsys.readouterr().out == "YES\n"
        assert run_cli(["tw", f, "--mode", "induced", "-r", "3"]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_subgraph_mode(self, tmp_path, capsys):
        f = self.fixture_c5(tmp_path)
        assert run_cli(["tw", f, "--mode", "subgraph", "-r", "1"]) == 0
        capsys.readouterr()

    def test_negative_r_is_an_error(self, tmp_path, capsys):
        f = self.fixture_c5(tmp_path)
        assert run_cli(["tw", f, "-r", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: r must be non-negative\n")

    def test_addition_mode(self, tmp_path, capsys):
        f = self.fixture_c5(tmp_path)
        assert run_cli(["tw", f, "--mode", "addition", "-r", "3"]) == 0
        assert capsys.readouterr().out == "YES\n"
        assert run_cli(["tw", f, "--mode", "addition", "-r", "5"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("kind,out", [("WDCE", "YES\n"), ("WEDCE", "NO\n")])
    def test_reads_the_parsed_graph(self, tmp_path, capsys, kind, out):
        """`tw` reads the parsed instance's graph, and a WEDCE instance drops
        its isolated vertices: the same four vertices and one edge answer
        differently by kind (r=3 needs all four vertices)."""
        delta_v, delta_e = (" delta={0}", "") if kind == "WDCE" else ("", " delta={2}")
        lines = [f"problem {kind}", "ops vdel", "k 0", "r 3"]
        lines += [f"vertex {v}{delta_v}" for v in range(4)] + [f"edge 2 3{delta_e}"]
        f = self.write_graph(tmp_path, "\n".join(lines) + "\n")
        assert run_cli(["tw", f, "--mode", "addition", "-r", "3"]) == (0 if out == "YES\n" else 1)
        assert capsys.readouterr() == (out, "")

    def test_external_decomposition(self, tmp_path, capsys):
        f = self.fixture_c5(tmp_path)
        td = tmp_path / "c5.td"
        td.write_text("s td 1 5 5\nb 0 0 1 2 3 4\n")
        assert run_cli(["tw", f, "--td", str(td), "--mode", "induced",
                        "-r", "2"]) == 0
        capsys.readouterr()

    def test_mismatched_decomposition_is_an_error(self, tmp_path, capsys):
        f = self.fixture_c5(tmp_path)
        td = tmp_path / "wrong.td"
        td.write_text("s td 1 2 2\nb 0 0 1\n")
        assert run_cli(["tw", f, "--td", str(td), "--mode", "induced",
                        "-r", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("td", ["c5.td", "absent.td"])
    def test_decomposition_refused_in_addition_mode(self, tmp_path, capsys, td):
        """The addition DP takes no decomposition; one given is refused
        before any file is read, not ignored."""
        f = self.fixture_c5(tmp_path)
        (tmp_path / "c5.td").write_text("s td 1 5 5\nb 0 0 1 2 3 4\n")
        argv = ["tw", f, "--td", str(tmp_path / td), "--mode", "addition", "-r", "3"]
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", "error: --td does not apply to --mode addition\n")


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["warp"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()


# Every argv shape: ``run_cli`` sends a known subcommand straight to its own
# parser, so each shape must end as the top-level parser would end it.
_SUBCOMMAND_ARGV = {
    "solve": ["solve", "f"],
    "kernelize": ["kernelize", "f"],
    "verify": ["verify", "f", "s"],
    "oracle": ["oracle", "f"],
    "gen": ["gen", "cycle", "5"],
    "tw": ["tw", "f", "-r", "2"],
}
DISPATCH_TABLE = [
    [], ["-h"], ["--help"], ["warp"], ["warp", "f"], ["sol", "f"], ["--bogus"],
    ["--", "solve", "f"], ["-h", "solve", "f"],
    *([name, "-h"] for name in _SUBCOMMAND_ARGV),
    *([name, "--help"] for name in _SUBCOMMAND_ARGV),
    *(argv for argv in _SUBCOMMAND_ARGV.values()),
    *(argv + ["--bogus"] for argv in _SUBCOMMAND_ARGV.values()),
    *(argv + ["extra"] for argv in _SUBCOMMAND_ARGV.values()),
    *(argv + ["-x", "extra"] for argv in _SUBCOMMAND_ARGV.values()),
    *([name] for name in _SUBCOMMAND_ARGV),                # missing positionals
    ["verify", "f"], ["tw", "-r", "2"], ["tw", "f"],      # missing -r
    ["tw", "f", "-r", "x"], ["tw", "f", "-r"], ["tw", "f", "-r", "-1"],
    ["tw", "f", "-r=2"], ["tw", "f", "-r2", "--mode", "subgraph"],
    ["tw", "f", "-r", "2", "--mode", "bogus"], ["tw", "f", "-r", "2", "--mo", "addition"],
    ["tw", "f", "-r", "2", "--td"], ["tw", "f", "-r", "2", "--td", "t", "--td", "u"],
    ["gen", "cycle", "5", "--k", "x"], ["gen", "cycle", "5", "--seed", "1.5"],
    ["gen", "cycle", "5", "--kind", "XYZ"], ["gen", "bogus"], ["gen", "gnp", "6", "0.5",
                                                              "--ki", "WSRE", "--k=2"],
    ["solve", "f", "--stat"], ["solve", "f", "--stats", "--stats"], ["solve", "--stats", "f"],
    ["solve", "f", "-h"], ["solve", "f", "--bogus", "--help"],
    ["solve", "--", "f"], ["solve", "f", "--", "--stats"], ["solve", "--", "--stats"],
    ["verify", "--", "f", "s"], ["solve", "f", "--"], ["gen", "cycle", "--", "5", "-1"],
    ["solve", "f", "solve"], ["solve", "-"], ["oracle", "f", "--stats"],
]


@pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=" ".join)
def test_dispatch_matches_the_top_level_parser(argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) and the parsed arguments equal what
    the top-level parser's ``parse_args`` gives, with ``SystemExit`` mapped as
    ``run_cli`` maps it; extra arguments are reported by the top level."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {name: lambda args: seen.append(vars(args)) or 0
                                           for name in _SUBCOMMAND_ARGV})
    got = (run_cli(argv), *capsys.readouterr(), seen)
    try:
        expected = [vars(cli._build_parser()[0].parse_args(argv))]
        code = 0
    except SystemExit as exc:
        expected = []
        code = 0 if exc.code in (0, None) else 2
    assert got == (code, *capsys.readouterr(), expected)


def _unreadable(fault, path):
    """An argument naming a file unreadable as ``fault`` says (``path``,
    made so, or the empty string), and the stderr that gives."""
    if fault == "empty":
        return "", "error: [Errno 2] No such file or directory: ''\n"
    if fault == "missing":
        return str(path), f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    if fault == "directory":
        path.mkdir()
        return str(path), f"error: [Errno 21] Is a directory: {str(path)!r}\n"
    path.write_bytes(b"problem WDCE\n\xff\n")
    return str(path), ("error: 'utf-8' codec can't decode byte 0xff in position 13: "
                       "invalid start byte\n")


@pytest.mark.parametrize("shape", [
    ["solve", "{bad}"], ["kernelize", "{bad}"], ["oracle", "{bad}"],
    ["verify", "{bad}", "{k13}"], ["verify", "{k13}", "{bad}"],
    ["tw", "{bad}", "-r", "2"], ["tw", "{k13}", "--td", "{bad}", "-r", "2"],
    ["tw", "{k13}", "--td", "{bad}", "-r", "2", "--mode", "subgraph"],
], ids=" ".join)
@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8", "empty"])
def test_unreadable_file_exits_2_with_one_line(fault, shape, k13_file, tmp_path, capsys):
    bad, err = _unreadable(fault, tmp_path / "bad.txt")
    argv = [a.format(bad=bad, k13=k13_file) for a in shape]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", err)


# Tokens each directive cannot lose: dropping one always breaks the line.
_REQUIRED_TOKENS = {"problem": 2, "ops": 1, "k": 2, "r": 2, "lambda": 2, "mu": 2,
                    "default": 3, "vertex": 2, "edge": 3, "nu": 4, "xi": 4}


def _mutants(text, rng, per_kind):
    """Malformed variants of a valid instance file: a required token
    dropped, a line duplicated, a digit turned into a letter, a brace
    removed."""
    lines = text.splitlines()
    for _ in range(per_kind):
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        j = rng.randrange(_REQUIRED_TOKENS[toks[0]])
        yield "\n".join(lines[:i] + [" ".join(toks[:j] + toks[j + 1:])] + lines[i + 1:])
        yield "\n".join(lines[:i + 1] + lines[i:])
        pos = rng.choice([p for p, c in enumerate(text) if c.isdigit()])
        yield text[:pos] + "x" + text[pos + 1:]
        braces = [p for p, c in enumerate(text) if c in "{}"]
        if braces:
            pos = rng.choice(braces)
            yield text[:pos] + text[pos + 1:]


def test_malformed_files_exit_2_with_one_line(tmp_path, capsys):
    rng = random.Random(20240601)
    path = tmp_path / "bad.txt"
    count = 0
    for kind in KINDS:
        for seed in range(3):
            text = serialize_instance(weighted_instance(kind, seed))
            for bad in _mutants(text, rng, per_kind=3):
                with pytest.raises(ParseError):
                    parse_instance(bad)
                path.write_text(bad)
                assert run_cli(["solve", str(path)]) == 2, bad
                out, err = capsys.readouterr()
                assert out == "" and "Traceback" not in err
                assert err.startswith("error: line ") and err.count("\n") == 1, err
                count += 1
    assert count == 144


_STRAY_TOKENS = ("0", "7", "-1", "x", "b", "s", "td", "vdel", "edel", "YES")


def _line_mutants(text, rng, rounds):
    """Variants of a valid file with one change each: a token dropped, a
    stray token added, a line duplicated, a line dropped, a digit turned
    into a letter."""
    lines = text.splitlines()
    for _ in range(rounds):
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        j = rng.randrange(len(toks))
        yield "\n".join(lines[:i] + [" ".join(toks[:j] + toks[j + 1:])] + lines[i + 1:])
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(_STRAY_TOKENS))
        yield "\n".join(lines[:i] + [" ".join(toks)] + lines[i + 1:])
        yield "\n".join(lines[:i + 1] + lines[i:])
        yield "\n".join(lines[:i] + lines[i + 1:])
        pos = rng.choice([p for p, c in enumerate(text) if c.isdigit()])
        yield text[:pos] + "x" + text[pos + 1:]


def _run_mutants(capsys, path, parse, argv, bases, rng, answers):
    """Run each mutant of each base text through ``run_cli(argv)``: one the
    parser refuses must exit 2 with its ParseError as the one stderr line;
    one it accepts must exit with one of ``answers`` (code to stderr), never
    a traceback.  Returns how many mutants the parser refused."""
    refused = 0
    for base in bases:
        for bad in _line_mutants(base, rng, rounds=6):
            try:
                parse(bad)
                expected = None
            except ParseError as exc:
                expected = f"error: {exc}\n"
            path.write_text(bad)
            code = run_cli(argv)
            out, err = capsys.readouterr()
            assert "Traceback" not in err, bad
            if expected is not None:
                assert (code, out, err) == (2, "", expected), bad
                refused += 1
            else:
                assert answers.get(code) == err, (bad, code, err)
    return refused


def test_malformed_scripts_and_decompositions_exit_2_with_one_line(tmp_path, capsys):
    rng = random.Random(20261018)
    inst_path, bad_path = tmp_path / "inst.txt", tmp_path / "bad.txt"
    insts = [weighted_instance(kind, seed) for kind in KINDS for seed in range(3)]
    scripts, decompositions = [], []
    for inst in insts:
        g = inst.graph
        v, (a, b) = g.vertices()[-1], g.edges()[0]
        scripts.append(f"YES cost=9\nvdel {v}\nedel {a} {b}\neadd {a} {v}\n")
        decompositions.append(serialize_decomposition(greedy_decomposition(g)))
    script_refused = td_refused = 0
    for inst, script, td in zip(insts, scripts, decompositions):
        inst_path.write_text(serialize_instance(inst))
        # a script that parses is judged: OK (0) or INVALID (1), on stdout
        script_refused += _run_mutants(
            capsys, bad_path, parse_script, ["verify", str(inst_path), str(bad_path)],
            [script], rng, {0: "", 1: ""})
        # a decomposition that parses but does not fit the graph is refused
        # by the DP, with no line number
        td_refused += _run_mutants(
            capsys, bad_path, parse_decomposition,
            ["tw", str(inst_path), "--td", str(bad_path), "-r", "2"], [td], rng,
            {0: "", 1: "", 2: "error: invalid tree decomposition for this graph\n"})
    # of 360 mutants each, these many are refused by the parser
    assert (script_refused, td_refused) == (201, 280)


def test_out_of_bound_range_is_refused_before_it_is_built(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("problem WDCE\nops vdel\nk 0\nr 3\nvertex 0 delta={0..1000000000}\n")
    assert run_cli(["solve", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: line 5: delta range 0..1000000000 outside [0..3]\n"


def fresh_cli(*argv):
    """Run ``python3 -m dcedit.cli`` in a new process on this checkout."""
    src = str(Path(dcedit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "dcedit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestParserReuse:
    """run_cli builds its parser once per process; reuse leaks nothing
    from one call into the next."""

    def test_parser_built_once(self, k13_file, tmp_path, monkeypatch, capsys):
        script = tmp_path / "k13.script"
        script.write_text("vdel 0\n")
        c5 = TestTw().fixture_c5(tmp_path)
        calls = [["gen", "cycle", "5"], ["solve", k13_file, "--stats"],
                 ["kernelize", k13_file], ["verify", k13_file, str(script)],
                 ["oracle", k13_file], ["tw", c5, "-r", "2"]]
        run_cli(["gen", "cycle", "5"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(10):
            assert [run_cli(argv) for argv in calls] == [0] * len(calls)
        capsys.readouterr()
        assert built == []

    def test_each_call_matches_a_fresh_process(self, k13_file, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")   # the same help layout on both sides
        c5 = TestTw().fixture_c5(tmp_path)
        wrong_td = tmp_path / "wrong.td"
        wrong_td.write_text("s td 1 2 2\nb 0 0 1\n")
        sequence = [
            ["gen", "gnp", "6", "0.5", "--kind", "WSRE", "--seed", "3", "--k", "2"],
            ["gen", "cycle", "5"],                    # WDCE, k 0, default ops
            ["tw", c5, "-r", "2", "--td", str(wrong_td)],
            ["tw", c5, "-r", "2"],                    # greedy decomposition
            ["solve", k13_file, "--bogus"],           # usage error
            ["solve", k13_file],
            ["solve", "--help"],
            ["solve", k13_file],
        ]
        for argv in sequence:
            code = run_cli(argv)
            captured = capsys.readouterr()
            fresh = fresh_cli(*argv)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert [run_cli(argv) for argv in sequence] == [0, 0, 2, 0, 2, 0, 0, 0]
        capsys.readouterr()


def test_module_entry_point(tmp_path):
    """``python3 -m dcedit.cli`` runs the CLI: exit codes reach the shell."""
    assert fresh_cli("warp").returncode == 2
    inst, script = tmp_path / "c5.wsre", tmp_path / "c5.script"
    gen = fresh_cli("gen", "cycle", "5", "--kind", "WSRE", "--k", "1")
    assert gen.returncode == 0
    inst.write_text(gen.stdout)
    solved = fresh_cli("solve", str(inst))
    assert solved.returncode == 0
    script.write_text(solved.stdout)
    verified = fresh_cli("verify", str(inst), str(script))
    assert (verified.returncode, verified.stdout) == (0, "OK cost=0\n")


def test_oracle_warning_is_one_stable_line(tmp_path, capsys):
    """Run as a program, the oracle's envelope warning is one stderr line
    without a source path or line; in-process callers get a UserWarning."""
    gen = fresh_cli("gen", "gnp", "12", "0.3", "--ops", "vdel,eadd", "--k", "0")
    path = tmp_path / "g12.wdce"
    path.write_text(gen.stdout)
    line = ("warning: oracle envelope exceeded (n=12, k=0); "
            "this may take a very long time\n")
    for command in ("solve", "oracle"):
        out = fresh_cli(command, str(path))
        assert (out.returncode, out.stdout, out.stderr) == (0, "YES cost=0\n", line)
    with pytest.warns(UserWarning, match="oracle envelope exceeded"):
        assert run_cli(["solve", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_byte_determinism_across_pipeline(tmp_path, capsys):
    """gen -> solve -> kernelize reruns are byte-identical."""
    argv = ["gen", "gnp", "5", "0.6", "--kind", "WEDCE", "--ops",
            "vdel,edel", "--k", "1", "--seed", "11"]
    run_cli(argv)
    text = capsys.readouterr().out
    f = tmp_path / "g.wedce"
    f.write_text(text)
    transcripts = []
    for _ in range(2):
        run_cli(["solve", str(f)])
        solve_out = capsys.readouterr().out
        run_cli(["kernelize", str(f)])
        kern = capsys.readouterr()
        transcripts.append((solve_out, kern.out, kern.err))
    assert transcripts[0] == transcripts[1]
