#!/usr/bin/env python3
"""Visited-node profile of the branching solvers against the tr() ceiling.

Generates seeded random instances per (kind, ops, r, k) cell, solves each
with the bounded search tree, and reports how much of the worst-case node
budget the runs actually touch.  Useful for spotting branching regressions:
`used%` can never pass 100, and a cell reaches 100 only when an instance's
tree is complete, as WDCE's often are at r = 1: on a NO instance every child
of a degree violator leaves another violator.  `us/node` is the solve wall
time per visited node in microseconds, each solve timed as the best of
three runs, so that a cell repeats between two runs of one build; compare
it across `--n` to see how the cost of a node grows with the graph.  It
averages in the leaves that the search decides without an edit (a leaf
that spends the budget while a violation lies beyond its deletion's
reach), so it is not the cost of an edited node.
"""

import argparse
import random
import statistics
import time

from dcedit.graphs import random_graph
from dcedit.problems import EDEL, VDEL, WDCE, WEDCE, WERE, WSRE, uniform_instance
from dcedit.search_tree import solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200,
                    help="instances per table row (default 200)")
    ap.add_argument("--n", type=int, default=6, help="vertices per instance")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cells = [
        (WDCE, {VDEL, EDEL}, "vdel+edel"),
        (WDCE, {VDEL}, "vdel"),
        (WEDCE, {VDEL, EDEL}, "vdel+edel"),
        (WEDCE, {VDEL}, "vdel"),
        (WERE, {VDEL, EDEL}, "vdel+edel"),
        (WERE, {VDEL}, "vdel"),
        (WSRE, {VDEL, EDEL}, "vdel+edel"),
        (WSRE, {VDEL}, "vdel"),
    ]
    print(f"{'kind':<6} {'ops':<10} {'r':>2} {'k':>2} "
          f"{'bound':>7} {'max':>6} {'mean':>8} {'used%':>7} {'us/node':>8}")
    for kind, ops, label in cells:
        for r in (1, 2):
            for k in (1, 2, 3):
                rng = random.Random(f"{args.seed}/{kind}/{label}/{r}/{k}")
                visited = []
                bound = None
                elapsed = 0.0
                for _ in range(args.trials):
                    g = random_graph(args.n, rng.uniform(0.2, 0.7),
                                     seed=rng.randrange(10 ** 6))
                    lam = rng.randint(0, r) if kind in (WERE, WSRE) else None
                    mu = rng.randint(0, r) if kind == WSRE else None
                    inst = uniform_instance(kind, g, r, k, ops, lam=lam, mu=mu)
                    best = float("inf")
                    for _ in range(3):
                        start = time.perf_counter()
                        rep = solve(inst)
                        best = min(best, time.perf_counter() - start)
                    elapsed += best
                    visited.append(rep.nodes_visited)
                    bound = rep.tree_bound
                used = 100.0 * max(visited) / bound
                per_node = 1e6 * elapsed / sum(visited)
                print(f"{kind:<6} {label:<10} {r:>2} {k:>2} {bound:>7} "
                      f"{max(visited):>6} {statistics.mean(visited):>8.1f} "
                      f"{used:>6.1f}% {per_node:>8.1f}")


if __name__ == "__main__":
    main()
