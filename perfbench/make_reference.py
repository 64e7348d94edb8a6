#!/usr/bin/env python3
"""Rebuild ``reference/<workload>.json``: the expected outcome of every pool unit.

    python3 perfbench/make_reference.py [workload ...]

Each CLI invocation of the pool maps to ``[exit code, answer, nodes_visited]``.
The exit code and nodes_visited are what the code at hand printed.  The
answer (1 = YES, 0 = NO) is the truth the benchmark checks against:

* inside the oracle's envelope (n <= ORACLE_MAX_VERTICES, k <= ORACLE_MAX_BUDGET)
  it is ``brute_force_solve``'s answer, and for `tw` on such small graphs the
  subset brute force of ``dcedit.oracle``;
* for planted-YES units it is YES by construction;
* for the wsre_kernel dead-end family (n = 14, k = 2) it is the oracle's
  answer, run outside its envelope here once, so no timed run has to;
* everywhere else it is the answer the code at hand printed.

Any disagreement between the printed answer and the truth, any YES witness
the independent checker rejects, and any refusal outside the dead-end
family is printed and makes the command exit 1; the file is written anyway,
so the benchmark reports those instances as wrong or failed.  Regenerate the
files whenever ``corpus.py`` changes; ``selftest.py`` checks they cover the
pools.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import corpus  # noqa: E402
from dcedit import brute_force_solve  # noqa: E402
from dcedit.oracle import (  # noqa: E402
    ORACLE_MAX_BUDGET,
    ORACLE_MAX_VERTICES,
    induced_regular_bruteforce,
    regular_subgraph_bruteforce,
)

REFERENCE = HERE / "reference"


def truth_of(workload: str, cell: tuple, item: corpus.Item, out: check.Outcome):
    inst = item.inst
    if item.command == "tw" and inst.graph.n <= ORACLE_MAX_VERTICES:
        r, mode = int(item.args[1]), item.args[3]
        brute = induced_regular_bruteforce if mode == "induced" else regular_subgraph_bruteforce
        return brute(inst.graph, r), "oracle"
    if item.command == "solve" and (
            (inst.graph.n <= ORACLE_MAX_VERTICES and inst.k <= ORACLE_MAX_BUDGET)
            or cell[-1] == "deadend"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return brute_force_solve(inst).answer, "oracle"
    if workload in ("bst_planted", "wsre_kernel") and cell[-1] == "yes":
        return True, "construction"
    if out.answered:
        return out.code == 0, "program"
    return None, "none"


def build(workload: str, work: Path) -> int:
    ref = {}
    problems = 0
    for cell, index in corpus.pool_units(workload):
        for item in corpus.make_unit(workload, cell, index):
            path = work / "instance.txt"
            path.write_text(item.text, encoding="utf-8")
            out = check.invoke([item.command, str(path), *item.args])
            truth, source = truth_of(workload, cell, item, out)
            why = None
            if truth is None:
                why = f"no answer to record: exit {out.code}: {out.stderr.strip()}"
            elif out.answered:
                why = check.answer_problem(item.command, item.inst, out, truth)
            elif cell[-1] != "deadend":
                why = f"refused (exit {out.code}): {out.stderr.strip()}"
            if why:
                problems += 1
                print(f"{workload} {item.uid} [{source}]: {why}", file=sys.stderr)
            ref[item.uid] = [out.code, int(bool(truth)), out.nodes]
    REFERENCE.mkdir(exist_ok=True)
    target = REFERENCE / f"{workload}.json"
    target.write_text(json.dumps(ref, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{workload}: {len(ref)} invocations, {problems} problems -> {target.name}")
    return problems


def main() -> int:
    workloads = sys.argv[1:] or list(corpus.WORKLOADS)
    unknown = set(workloads) - set(corpus.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        problems = sum(build(w, Path(tmp)) for w in workloads)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
