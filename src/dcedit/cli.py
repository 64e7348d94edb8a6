"""Command-line front end.

Subcommands: solve, kernelize, verify, oracle, gen, tw.  Answers go to
stdout in a fixed, byte-stable layout (canonical edit order, sorted ids);
diagnostics, kernel traces and --stats counters go to stderr.  Exit codes:
0 = yes / verified, 1 = no / rejected, 2 = any error.  From a checkout:
``PYTHONPATH=src python3 -m dcedit.cli <subcommand> ...``.

The argument parsers are built once per process, on the first ``run_cli``
call, so in-process callers (tests, ``perfbench``) pay for them once.
argparse reads ``sys.stdout``/``sys.stderr`` and the terminal width when it
prints, not when it is built, so help and usage errors are unchanged by the
reuse.  An argv that starts with a subcommand name goes straight to that
subcommand's parser, which is what the top-level parser would hand it to,
so argv is parsed once.  The subcommand parser only collects arguments it
does not know; the top-level parser reports them, as its ``parse_args``
does, so the usage line of that error stays the top-level one.  Any other
argv (none, ``-h``, an unknown name) goes through the top-level parser.
Run as a program, a warning (the oracle's envelope) prints as one
``warning: ...`` line on stderr; ``run_cli`` callers get the ``UserWarning``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from typing import Dict, List, Tuple

from .graphs import WeightedGraph, complete, cycle, petersen, random_graph
from .instance_io import (
    parse_decomposition,
    parse_instance,
    parse_script,
    serialize_instance,
    serialize_script,
)
from .kernelize import kernelize
from .oracle import brute_force_solve
from .problems import (
    KINDS,
    WDCE,
    EditScript,
    apply_edit_script,
    canonical_steps,
    check_constraints,
    exact_instance,
)
from .search_tree import solve
from .treewidth import solve_induced_regular, solve_regular_subgraph, solve_with_addition

GEN_FAMILIES = ("complete", "cycle", "petersen", "gnp")


@functools.cache
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    top = argparse.ArgumentParser(prog="dcedit",
                                  description="degree-constraint edit solvers")
    sub = top.add_subparsers(dest="command", required=True)
    subs: Dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help: str) -> argparse.ArgumentParser:
        subs[name] = sub.add_parser(name, help=help)
        return subs[name]

    p = add("solve", "decide an instance and print an edit script")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true",
                   help="report nodes visited and the tree-size bound on stderr")

    p = add("kernelize", "reduce an instance; trace on stderr")
    p.add_argument("file")

    p = add("verify", "check an edit script against an instance")
    p.add_argument("file")
    p.add_argument("script")

    p = add("oracle", "exhaustive ground-truth answer")
    p.add_argument("file")

    p = add("gen", "emit a generated instance file")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("params", nargs="*",
                   help="complete/cycle: n; gnp: n p; petersen: none")
    p.add_argument("--kind", choices=sorted(KINDS), default=WDCE)
    p.add_argument("--ops", default="vdel,edel", help="comma-separated operations")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = add("tw", "regular-subgraph existence via treewidth DP")
    p.add_argument("file")
    p.add_argument("--td", help="tree decomposition file (default: greedy heuristic)")
    p.add_argument("--mode", choices=("induced", "subgraph", "addition"),
                   default="induced")
    p.add_argument("-r", type=int, required=True)
    return top, subs


_BLOCK = 10 ** 4000


def _digits(n: int) -> str:
    """``str(n)`` for a non-negative int of any size: ``str`` refuses one of
    more than 4,300 digits (Python 3.11+), so this writes 4,000 at a time."""
    if n < _BLOCK:
        return str(n)
    blocks = []
    while n >= _BLOCK:
        n, low = divmod(n, _BLOCK)
        blocks.append(f"{low:04000}")
    return str(n) + "".join(reversed(blocks))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _cmd_solve(args) -> int:
    """``solve``, or for ``oracle`` the exhaustive answer, which has no --stats."""
    inst = parse_instance(_read(args.file))
    oracle = args.command == "oracle"
    rep = brute_force_solve(inst) if oracle else solve(inst)
    if rep.answer:
        print(f"YES cost={rep.witness.cost}")
        sys.stdout.write(serialize_script(rep.witness))
        code = 0
    else:
        print("NO")
        code = 1
    if not oracle and args.stats:
        print(f"nodes_visited={rep.nodes_visited}", file=sys.stderr)
        bound = _digits(rep.tree_bound) if rep.tree_bound is not None else "-"
        print(f"tree_bound={bound}", file=sys.stderr)
    return code


def _cmd_kernelize(args) -> int:
    inst = parse_instance(_read(args.file))
    reduced, trace = kernelize(inst)
    sys.stdout.write(serialize_instance(reduced))
    for step in trace.steps:
        ids = ",".join(str(x) for x in sorted(step.affected))
        print(f"rule={step.rule} affected={ids} k_delta={step.k_delta}",
              file=sys.stderr)
    print(f"kernel n={reduced.graph.n} m={reduced.graph.m} k={reduced.k} "
          f"rules_fired={len(trace.steps)}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.file))
    steps = parse_script(_read(args.script))
    for i, step in enumerate(steps):
        if step[0] not in inst.ops:
            print(f"INVALID: step {i} ({step!r}) uses {step[0]}, "
                  "which the instance does not allow")
            return 1
    try:
        script = EditScript.build(inst.graph, canonical_steps(steps))
    except ValueError as exc:
        print(f"INVALID: {exc}")
        return 1
    if script.cost > inst.k:
        print(f"INVALID: cost {script.cost} exceeds budget {inst.k}")
        return 1
    edited = apply_edit_script(inst.graph, script)
    if not check_constraints(inst, edited):
        print("INVALID: constraints unsatisfied after applying the script")
        return 1
    print(f"OK cost={script.cost}")
    return 0


def _gen_graph(args) -> WeightedGraph:
    p = args.params
    if args.family == "petersen":
        if p:
            raise ValueError("petersen takes no parameters")
        return petersen()
    if args.family in ("complete", "cycle"):
        if len(p) != 1:
            raise ValueError(f"{args.family} takes one parameter: n")
        n = int(p[0])
        return complete(n) if args.family == "complete" else cycle(n)
    if len(p) != 2:
        raise ValueError("gnp takes two parameters: n p")
    return random_graph(int(p[0]), float(p[1]), seed=args.seed)


def _cmd_gen(args) -> int:
    ops = frozenset(s for s in args.ops.split(",") if s)
    inst = exact_instance(args.kind, _gen_graph(args), args.k, ops)
    sys.stdout.write(serialize_instance(inst))
    return 0


def _cmd_tw(args) -> int:
    if args.mode == "addition" and args.td is not None:
        raise ValueError("--td does not apply to --mode addition")
    if args.r < 0:
        raise ValueError("r must be non-negative")
    g = parse_instance(_read(args.file)).graph
    if args.mode == "addition":
        answer = solve_with_addition(g, args.r)
    else:
        td = parse_decomposition(_read(args.td)) if args.td is not None else None
        fn = solve_induced_regular if args.mode == "induced" else solve_regular_subgraph
        answer = fn(g, args.r, td)
    print("YES" if answer else "NO")
    return 0 if answer else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "kernelize": _cmd_kernelize,
    "verify": _cmd_verify,
    "oracle": _cmd_solve,
    "gen": _cmd_gen,
    "tw": _cmd_tw,
}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    top, subs = _build_parser()
    sub = subs.get(argv[0]) if argv else None
    if sub is None:
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run_cli(argv: List[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # malformed input must never escape as a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
