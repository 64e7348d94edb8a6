"""Acceptance gate: one test per criterion, zero tolerance everywhere.

Answers are exact booleans, size and node-count bounds are hard
inequalities, and every byte of CLI output must reproduce.  Each test's
single pass/fail line in ``pytest -v`` is the verdict for its criterion.

The sweeps are seeded; rerunning the file replays the identical workload.
"""

import random
import time

import pytest

from conftest import exact_instance, uniform_instance, wdeg
from dcedit.cli import run_cli
from dcedit.graphs import WeightedGraph, complete, cycle, line_graph, petersen, random_graph
from dcedit.instance_io import parse_instance, serialize_instance
from dcedit.kernelize import RULES_BY_NAME, kernel_bound, kernelize
from dcedit.oracle import (
    brute_force_solve,
    enumerate_labeled_graphs,
    induced_regular_bruteforce,
    regular_subgraph_bruteforce,
)
from dcedit.problems import EDEL, VDEL, WDCE, WEDCE, WERE, WSRE, check_constraints
from dcedit.search_tree import solve, tr
from dcedit.treewidth import (
    greedy_decomposition,
    solve_induced_regular,
    solve_regular_subgraph,
    solve_with_addition,
)

BOTH = frozenset({VDEL, EDEL})
ONLY_V = frozenset({VDEL})
ONLY_E = frozenset({EDEL})


# -- criteria 1 and 4: one shared pass over the 1024 five-vertex graphs -----


@pytest.fixture(scope="module")
def five_vertex_sweep():
    """Solver-vs-oracle answers and node counts for every covered solver on
    every labeled unit graph with 5 vertices, r in 1..3, lambda/mu in 0..r,
    k in 0..3."""
    wrong_answer = []
    over_budget = []
    for gi, g in enumerate(enumerate_labeled_graphs(5)):
        for r in (1, 2, 3):
            for k in range(4):
                rows = [
                    (WDCE, BOTH, None, None, tr(2 * r + 3, k)),
                    (WDCE, ONLY_V, None, None, tr(r + 2, k)),
                    (WEDCE, BOTH, None, None, tr(2 * r + 5, k)),
                    (WEDCE, ONLY_V, None, None, tr(r + 3, k)),
                ]
                rows += [(WERE, BOTH, lam, None, tr(3 * r + 6, k))
                         for lam in range(r + 1)]
                rows += [(WSRE, BOTH, lam, mu, tr(3 * r + 6, k))
                         for lam in range(r + 1) for mu in range(r + 1)]
                for kind, ops, lam, mu, bound in rows:
                    inst = uniform_instance(kind, g, r=r, k=k, ops=ops,
                                            lam=lam, mu=mu)
                    rep = solve(inst)
                    if rep.answer != brute_force_solve(inst).answer:
                        wrong_answer.append((gi, kind, sorted(ops), r, lam, mu, k))
                    if not (rep.tree_bound == bound and rep.nodes_visited <= bound):
                        over_budget.append((gi, kind, sorted(ops), r, k,
                                            rep.nodes_visited, bound))
    return wrong_answer, over_budget


def test_criterion_1_solvers_match_oracle_on_all_five_vertex_graphs(five_vertex_sweep):
    wrong_answer, _ = five_vertex_sweep
    assert wrong_answer == []


def test_criterion_4_search_trees_stay_within_tr_bounds(five_vertex_sweep):
    _, over_budget = five_vertex_sweep
    assert over_budget == []


# -- criterion 2: single rule applications preserve the oracle answer -------
#
# Each generator plants a structure its rule provably acts on, decorated
# with seeded noise (sizes, weights, operation sets), and the test applies
# the rule exactly once.  Generators promise applicability; the test
# asserts it, so a silent no-op cannot fake soundness.


def _broken_delta_v(inst, fixes):
    """Replace delta entries for the given vertices (value must stay <= r)."""
    cs = inst.constraints
    dv = dict(cs.delta_v)
    for v, value in fixes.items():
        dv[v] = frozenset({value})
    return inst.replace(constraints=cs.replace(delta_v=dv))


def _broken_delta_e(inst, fixes):
    cs = inst.constraints
    de = dict(cs.delta_e)
    for e, value in fixes.items():
        de[e] = frozenset({value})
    return inst.replace(constraints=cs.replace(delta_e=de))


def _rng_ops(rng, need_vdel=False):
    if need_vdel:
        return rng.choice((ONLY_V, BOTH))
    return rng.choice((ONLY_V, ONLY_E, BOTH))


def _rr1_instance(rng):
    """A hub adjacent to everything, with too much incident weight to ever
    be repaired inside the budget."""
    kind = rng.choice((WEDCE, WERE, WSRE))
    nb = rng.randint(3, 5)
    base = random_graph(nb, 0.5, seed=rng.randrange(10 ** 6))
    vw = {v: 1 for v in range(nb + 1)}
    ew = {e: 1 for e in base.edges()}
    for v in range(nb):
        ew[(v, nb)] = 1
    if rng.random() < 0.3:
        ew[(rng.randrange(nb), nb)] = 2
    g = WeightedGraph(vw, ew)
    k, r = 1, rng.randint(1, nb - 2)
    lam = rng.randint(0, r) if kind in (WERE, WSRE) else None
    mu = rng.randint(0, r) if kind == WSRE else None
    return uniform_instance(kind, g, r=r, k=k, ops=_rng_ops(rng, need_vdel=True),
                            lam=lam, mu=mu)


_CLEAN_PIECES = {
    "edge": ([0, 1], [(0, 1)]),
    "path3": ([0, 1, 2], [(0, 1), (1, 2)]),
    "triangle": ([0, 1, 2], [(0, 1), (0, 2), (1, 2)]),
    "c4": ([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "c5": ([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
}


def _rr2_instance(rng):
    """A fully satisfied component disjoint from a spoiled one."""
    kind = rng.choice((WEDCE, WERE, WSRE))
    piece = rng.choice(("edge", "path3") if kind == WEDCE
                       else ("edge", "path3", "triangle", "c4", "c5"))
    pvs, pes = _CLEAN_PIECES[piece]
    off = len(pvs)
    vw = {v: 1 for v in pvs}
    ew = {e: rng.choice((1, 1, 2)) for e in pes}
    # the spoiled piece: a lone edge, or a 2-path
    dirty_path = rng.random() < 0.5
    dvs = [off, off + 1] + ([off + 2] if dirty_path else [])
    vw.update({v: 1 for v in dvs})
    ew[(off, off + 1)] = 1
    if dirty_path:
        ew[(off + 1, off + 2)] = 1
    g = WeightedGraph(vw, ew)
    inst = exact_instance(kind, g, k=rng.randint(1, 2), ops=_rng_ops(rng))
    if kind == WEDCE:
        true = max(inst.constraints.delta_of_edge(off, off + 1))
        return _broken_delta_e(inst, {(off, off + 1): true - 1})
    true = max(inst.constraints.delta_of_vertex(off))
    return _broken_delta_v(inst, {off: true - 1})


def _rr3_instance(rng):
    """A clean chain deeper than k+1 hanging off a spoiled hub."""
    k = rng.randint(0, 1)
    depth = k + 2 + rng.randint(0, 1)
    vw = {v: 1 for v in range(depth + 2)}
    ew = {(0, 1): 1, (0, 2): rng.choice((1, 2))}
    for i in range(2, depth + 1):
        ew[(i, i + 1)] = rng.choice((1, 2))
    g = WeightedGraph(vw, ew)
    inst = exact_instance(WEDCE, g, k=k, ops=_rng_ops(rng))
    return _broken_delta_e(inst, {(0, 1): 0})


def _rr4_instance(rng):
    """Edge-deletion only: a clean triangle or path attached to a spoiled
    hub, ripe for contraction into a two-vertex stub."""
    blob_triangle = rng.random() < 0.5
    vw = {v: 1 for v in range(5)}
    ew = {(1, 2): rng.choice((1, 2)), (2, 3): rng.choice((1, 2)),
          (0, 1): 1, (0, 4): 1}
    if blob_triangle:
        ew[(1, 3)] = 1
    if rng.random() < 0.4:
        ew[(0, 2)] = 1
    g = WeightedGraph(vw, ew)
    inst = exact_instance(WEDCE, g, k=rng.randint(1, 3), ops=ONLY_E)
    return _broken_delta_e(inst, {(0, 4): 0})


def _rr5_instance(rng):
    """A clean chain of depth >= 2 behind a spoiled hub (edge-regular)."""
    depth = rng.randint(2, 3)
    vw = {v: 1 for v in range(depth + 2)}
    ew = {(0, 1): 1, (0, 2): 1}
    for i in range(2, depth + 1):
        ew[(i, i + 1)] = rng.choice((1, 2))
    if rng.random() < 0.4:               # extra first-layer leaf off the hub
        b = depth + 2
        vw[b] = 1
        ew[(0, b)] = 1
    g = WeightedGraph(vw, ew)
    inst = exact_instance(WERE, g, k=rng.randint(0, 2),
                          ops=_rng_ops(rng, need_vdel=True))
    hub_true = max(inst.constraints.delta_of_vertex(0))
    return _broken_delta_v(inst, {0: hub_true - 1, 1: 0})


def _rr6_instance(rng):
    """A clean chain of depth >= 3 behind a spoiled hub (strongly regular)."""
    depth = rng.randint(3, 4)
    vw = {v: 1 for v in range(depth + 2)}
    ew = {(0, 1): 1, (0, 2): 1}
    for i in range(2, depth + 1):
        ew[(i, i + 1)] = 1
    if rng.random() < 0.3:
        b = depth + 2
        vw[b] = 1
        ew[(0, b)] = 1
    g = WeightedGraph(vw, ew)
    inst = exact_instance(WSRE, g, k=rng.randint(1, 2),
                          ops=_rng_ops(rng, need_vdel=True))
    hub_true = max(inst.constraints.delta_of_vertex(0))
    return _broken_delta_v(inst, {0: hub_true - 1, 1: 0})


RULE_GENERATORS = {
    "rr1": _rr1_instance,
    "rr2": _rr2_instance,
    "rr3": _rr3_instance,
    "rr4": _rr4_instance,
    "rr5": _rr5_instance,
    "rr6": _rr6_instance,
}


def test_criterion_2_single_rule_applications_preserve_the_answer():
    failures = []
    for name, make in RULE_GENERATORS.items():
        rng = random.Random(f"acceptance-2-{name}")
        for i in range(500):
            inst = make(rng)
            hit = RULES_BY_NAME[name](inst)
            assert hit is not None, f"{name} generator missed on instance {i}"
            reduced, _ = hit
            if brute_force_solve(inst).answer != brute_force_solve(reduced).answer:
                failures.append((name, i))
    assert failures == []


# -- criterion 3: kernels of yes-instances fit the size bounds --------------
#
# Yes-instances are planted: satisfied filler components plus a defect the
# allowed operations repair at cost 1 (occasionally two defects at cost 2).
# The oracle confirms every instance before it counts.


COVERED_PAIRS = [
    (WEDCE, ONLY_V),
    (WEDCE, ONLY_E),
    (WEDCE, BOTH),
    (WERE, ONLY_V),
    (WERE, BOTH),
    (WSRE, ONLY_V),
    (WSRE, BOTH),
]


def _assemble(pieces):
    """Disjoint union with fresh consecutive ids; returns (graph, offsets)."""
    vw, ew, offsets = {}, {}, []
    base = 0
    for vs, es, weights in pieces:
        offsets.append(base)
        for v in vs:
            vw[base + v] = 1
        for e, w in zip(es, weights):
            ew[(base + e[0], base + e[1])] = w
        base += len(vs)
    return WeightedGraph(vw, ew), offsets


def _wedce_yes(rng, ops):
    r = rng.choice((1, 2, 3, 3))
    use_edel = EDEL in ops and (VDEL not in ops or rng.random() < 0.6)
    if use_edel and r >= 3 and rng.random() < 0.4:
        # a triangle whose lists describe the path left by one deletion
        shape, marker = _CLEAN_PIECES["triangle"], "triangle"
    elif use_edel:
        # a lone edge pinned to 0: only its own deletion satisfies it
        shape, marker = _CLEAN_PIECES["edge"], "lone-edge"
    else:
        # K_{1,2} with unsatisfiable lists: delete the middle vertex
        shape, marker = _CLEAN_PIECES["path3"], "star"
    pieces = [(shape[0], shape[1], [1] * len(shape[1]))]
    fillers = []
    if r >= 2:
        fillers.append(_CLEAN_PIECES["edge"])
    if r >= 3:
        fillers.append(_CLEAN_PIECES["path3"])
    room = 8 - len(shape[0])
    while fillers and room >= 2 and rng.random() < 0.75:
        f = rng.choice(fillers)
        if len(f[0]) > room:
            break
        pieces.append((f[0], f[1], [1] * len(f[1])))
        room -= len(f[0])
    g, _ = _assemble(pieces)
    inst = exact_instance(WEDCE, g, k=rng.randint(1, 3), ops=ops)
    fixes = {"lone-edge": {(0, 1): 0},
             "triangle": {(0, 1): 3, (1, 2): 3, (0, 2): 0},
             "star": {(0, 1): 0, (1, 2): 0}}[marker]
    broken = _broken_delta_e(inst, fixes)
    cs = broken.constraints
    r_final = max(max(s) for s in cs.delta_e.values())
    return broken.replace(constraints=cs.replace(r=max(r_final, 1)))


def _regular_yes(rng, kind, ops):
    """WERE/WSRE yes-instances: clean fillers plus a deletable defect."""
    r = rng.choice((1, 2, 2, 3))
    menu = [_CLEAN_PIECES["edge"]]
    if r >= 2:
        menu += [_CLEAN_PIECES["path3"], _CLEAN_PIECES["triangle"],
                 _CLEAN_PIECES["c5"]]
    tail = r >= 2 and rng.random() < 0.45
    if tail:
        depth = rng.randint(2, 3)
        vs = list(range(depth + 2))
        es = [(0, 1)] + [(i, i + 1) for i in range(1, depth)] + [(0, depth + 1)]
        pieces = [(vs, es, [1 for _ in es])]
        defect_local = depth + 1              # pendant off the hub
    else:
        pieces = [([0], [], [])]
        defect_local = 0                      # lone vertex with a wrong list
    room = 8 - len(pieces[0][0])
    while room >= 2 and rng.random() < 0.7:
        f = rng.choice(menu)
        if len(f[0]) > room:
            break
        wmax = r if f is _CLEAN_PIECES["edge"] else 1
        pieces.append((f[0], f[1], [rng.randint(1, wmax) for _ in f[1]]))
        room -= len(f[0])
    g, offsets = _assemble(pieces)
    inst = exact_instance(kind, g, k=rng.randint(1, 3), ops=ops)
    cs = inst.constraints
    defect = offsets[0] + defect_local
    if tail:
        hub = offsets[0]
        fixes = {hub: max(cs.delta_of_vertex(hub)) - 1, defect: 0}
    else:
        fixes = {defect: 1}
    dv = dict(cs.delta_v)
    for v, value in fixes.items():
        dv[v] = frozenset({value})
    r_final = max(max(s) for s in dv.values())
    r_final = max(r_final, cs.lam or 0, cs.mu or 0, 1)
    return inst.replace(constraints=cs.replace(r=r_final, delta_v=dv))


def _yes_instance(rng, kind, ops):
    if kind == WEDCE:
        return _wedce_yes(rng, ops)
    return _regular_yes(rng, kind, ops)


def test_criterion_3_yes_instance_kernels_fit_the_size_bounds():
    failures = []
    for kind, ops in COVERED_PAIRS:
        rng = random.Random(f"acceptance-3-{kind}-{'-'.join(sorted(ops))}")
        for i in range(200):
            inst = _yes_instance(rng, kind, ops)
            assert inst.k <= 3 and inst.constraints.r <= 3
            assert brute_force_solve(inst).answer, (kind, sorted(ops), i)
            reduced, _ = kernelize(inst)
            bound = kernel_bound(kind, ops, inst.k, inst.constraints.r)
            if reduced.graph.n > bound:
                failures.append((kind, sorted(ops), i, reduced.graph.n, bound))
    assert failures == []


# -- criterion 5: recognizer fixtures ---------------------------------------


def test_criterion_5_recognizer_fixtures():
    # Petersen is (3,0,1)-strongly-regular, C5 is (2,0,1); both must be
    # accepted with an empty budget, and a wrong lambda must be refused.
    pete = petersen()
    assert solve(uniform_instance(WSRE, pete, r=3, k=0, ops=ONLY_V,
                                  lam=0, mu=1)).answer
    assert solve(uniform_instance(WSRE, cycle(5), r=2, k=0, ops=ONLY_V,
                                  lam=0, mu=1)).answer
    assert not solve(uniform_instance(WSRE, pete, r=3, k=0, ops=ONLY_V,
                                      lam=1, mu=1)).answer

    # K4 is (3,2)-edge-regular; with no non-adjacent pairs, any mu passes.
    k4 = complete(4)
    assert solve(uniform_instance(WERE, k4, r=3, k=0, ops=ONLY_V, lam=2)).answer
    for mu in range(4):
        assert brute_force_solve(uniform_instance(WSRE, k4, r=3, k=0,
                                                  ops=ONLY_V, lam=2,
                                                  mu=mu)).answer

    # every generated regular graph satisfies the edge-degree form delta={2r}
    regulars = [(cycle(n), 2) for n in range(3, 9)]
    regulars += [(complete(n), n - 1) for n in range(2, 6)]
    regulars.append((petersen(), 3))
    for g, deg in regulars:
        inst = uniform_instance(WEDCE, g, r=2 * deg, k=0, ops=ONLY_E)
        assert check_constraints(inst, g), f"{deg}-regular graph rejected"

    # a graph without isolated vertices has edge-degree r everywhere exactly
    # when its line graph is (r-2)-regular
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            if not g.edges() or any(not g.neighbors(v) for v in g.vertices()):
                continue
            lg = line_graph(g)
            for r in range(9):
                uniform_edges = all(wdeg(g, u) + wdeg(g, v) == r
                                    for (u, v) in g.edges())
                lg_regular = all(len(lg.neighbors(x)) == r - 2
                                 for x in lg.vertices())
                assert uniform_edges == lg_regular, (g.edges(), r)


# -- criterion 6: treewidth DPs against subset enumeration ------------------


def test_criterion_6_treewidth_dps_match_brute_force():
    started = time.monotonic()
    failures = []

    def compare(g, tag):
        td = greedy_decomposition(g)
        for r in range(5):
            want_ind = induced_regular_bruteforce(g, r)
            want_sub = regular_subgraph_bruteforce(g, r)
            if solve_induced_regular(g, r, td) != want_ind:
                failures.append(("induced", tag, r))
            if solve_regular_subgraph(g, r, td) != want_sub:
                failures.append(("subgraph", tag, r))
            if r > td.width and (want_ind or want_sub):
                failures.append(("guard", tag, r))
            if solve_with_addition(g, r) != (g.n >= r + 1):
                failures.append(("addition", tag, r))

    for n in range(1, 6):
        for gi, g in enumerate(enumerate_labeled_graphs(n)):
            compare(g, (n, gi))

    rng = random.Random("acceptance-6")
    for i in range(200):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.uniform(0.15, 0.5), seed=rng.randrange(10 ** 6))
        compare(g, ("seeded", i))

    assert failures == []
    assert time.monotonic() - started < 120


# -- criterion 7: round trips and byte-identical reruns ---------------------


GOLDEN_GEN = [
    # (argv tail, kernelizable)
    (["complete", "4", "--kind", "WEDCE", "--ops", "vdel,edel", "--k", "1"], True),
    (["complete", "5", "--kind", "WERE", "--ops", "vdel", "--k", "2"], True),
    (["cycle", "5", "--kind", "WSRE", "--ops", "vdel,edel", "--k", "1"], True),
    (["cycle", "6", "--kind", "WEDCE", "--ops", "edel", "--k", "2"], True),
    (["petersen", "--kind", "WSRE", "--ops", "vdel", "--k", "1"], True),
    (["petersen", "--kind", "WDCE", "--ops", "vdel,edel", "--k", "0"], False),
    (["gnp", "6", "0.4", "--kind", "WEDCE", "--ops", "vdel,edel", "--k", "1",
      "--seed", "7"], True),
    (["gnp", "5", "0.3", "--kind", "WDCE", "--ops", "vdel,edel,eadd", "--k", "2",
      "--seed", "3"], False),
    (["gnp", "6", "0.5", "--kind", "WERE", "--ops", "vdel,edel", "--k", "2",
      "--seed", "11"], True),
    (["gnp", "5", "0.6", "--kind", "WSRE", "--ops", "vdel", "--k", "0",
      "--seed", "5"], True),
]


def test_criterion_7_round_trip_and_byte_identical_reruns(tmp_path, capsys):
    def invoke(argv):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        return code, out, err

    for idx, (tail, kernelizable) in enumerate(GOLDEN_GEN):
        code, text, _ = invoke(["gen", *tail])
        assert code == 0

        # the emitted file is already in canonical form
        assert serialize_instance(parse_instance(text)) == text

        path = tmp_path / f"golden-{idx}.dce"
        path.write_text(text)
        reruns = [["solve", str(path)], ["solve", str(path), "--stats"],
                  ["oracle", str(path)]]
        if kernelizable:
            reruns.append(["kernelize", str(path)])
        for argv in reruns:
            first = invoke(argv)
            assert first == invoke(argv), argv

        # generation itself must reproduce byte for byte
        assert invoke(["gen", *tail])[1] == text
