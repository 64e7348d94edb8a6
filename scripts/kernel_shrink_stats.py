#!/usr/bin/env python3
"""How much do the reduction rules shrink planted instances?

Each trial couples satisfied filler components (edges, paths, cycles)
with a small spoiled core, so the rules have genuine structure to remove.
Reports per-kind shrink ratios and a histogram of which rules fired.
"""

import argparse
import random
from collections import Counter

from dcedit.graphs import WeightedGraph
from dcedit.kernelize import kernelize
from dcedit.problems import EDEL, VDEL, WEDCE, WERE, WSRE, exact_instance

PIECES = {
    "edge": ([0, 1], [(0, 1)]),
    "path3": ([0, 1, 2], [(0, 1), (1, 2)]),
    "triangle": ([0, 1, 2], [(0, 1), (0, 2), (1, 2)]),
    "c4": ([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "c5": ([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
}


def planted(rng, kind):
    """Disjoint filler components, plus a spoiled hub carrying both a
    spoiled pendant and a clean tail; lists are exact everywhere else."""
    vw, ew = {}, {}
    base = 0
    for _ in range(rng.randint(1, 2)):
        vs, es = PIECES[rng.choice(("edge", "path3", "triangle", "c4", "c5"))]
        for v in vs:
            vw[base + v] = 1
        for (u, v) in es:
            ew[(base + u, base + v)] = rng.choice((1, 1, 2))
        base += len(vs)
    hub, pendant = base, base + 1
    chain = [base + 2 + i for i in range(rng.randint(2, 4))]
    for v in [hub, pendant] + chain:
        vw[v] = 1
    ew[(hub, pendant)] = 1
    ew[(hub, chain[0])] = 1
    for a, b in zip(chain, chain[1:]):
        ew[(a, b)] = 1
    g = WeightedGraph(vw, ew)
    if kind == WEDCE:
        ops = rng.choice(({VDEL}, {EDEL}, {VDEL, EDEL}))
    else:
        ops = rng.choice(({VDEL}, {VDEL, EDEL}))
    inst = exact_instance(kind, g, rng.randint(1, 3), ops)
    cs = inst.constraints
    if kind == WEDCE:
        de = dict(cs.delta_e)
        de[(hub, pendant)] = {0}
        return inst.replace(constraints=cs.replace(delta_e=de))
    dv = dict(cs.delta_v)
    dv[hub] = {max(dv[hub]) - 1}
    dv[pendant] = {0}
    return inst.replace(constraints=cs.replace(delta_v=dv))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for kind in (WEDCE, WERE, WSRE):
        rng = random.Random(f"{args.seed}/{kind}")
        before, after, fired = [], [], Counter()
        for _ in range(args.trials):
            inst = planted(rng, kind)
            reduced, trace = kernelize(inst)
            before.append(inst.graph.n)
            after.append(reduced.graph.n)
            fired.update(step.rule for step in trace.steps)
        shrink = 100.0 * (1 - sum(after) / sum(before))
        hist = "  ".join(f"{r}:{c}" for r, c in sorted(fired.items()))
        print(f"{kind}: mean |V| {sum(before)/len(before):.1f} -> "
              f"{sum(after)/len(after):.1f}  (shrink {shrink:.0f}%)  [{hist}]")


if __name__ == "__main__":
    main()
