"""Pins every consumer of the constraint checker to recorded output.

One seeded sweep of weighted instances (n = 4-12, all four kinds) runs
through ``check_constraints``, the oracle, ``find_clean_regions``,
``kernelize`` and ``exact_instance``; the digest of everything they return
was recorded before the checker's consumers were rebuilt on one measures
view, so any change in what a kind checks, or in which vertices count as
clean, shows up here.
"""

import hashlib
import random

from dcedit.graphs import WeightedGraph
from dcedit.instance_io import serialize_instance
from dcedit.kernelize import find_clean_regions, kernelize
from dcedit.oracle import brute_force_solve
from dcedit.problems import (
    EADD,
    EDEL,
    KINDS,
    VDEL,
    WDCE,
    WEDCE,
    apply_edit_script,
    check_constraints,
    edel,
    eadd,
    exact_instance,
    vdel,
)

DIGEST = "56365dd467ad26d6afccc131fa7778a87a88a72c09c761de1e92692e0e67e0a0"
SEEDS = 160


def _weighted_gnp(rng, n):
    p = rng.choice((0.3, 0.5, 0.7))
    vw = {v: rng.choice((1, 1, 2)) for v in range(n)}
    ew = {(u, v): rng.choice((1, 1, 2))
          for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return WeightedGraph(vw, ew)


def _moved(x, hi):
    return {x + 1} if x < hi else {x - 1}


def _shifted(rng, vals, hi, wide, p_move):
    """A list near the singleton ``vals``: kept, moved by one, or (when
    ``wide``) grown by a neighbouring value; always within [0..hi]."""
    (x,) = vals
    roll = rng.random()
    if roll < p_move:
        return _moved(x, hi)
    if wide and roll < 2 * p_move:
        return {x, min(hi, x + 1)}
    return {x}


def _bounds(cs):
    """r, lambda and mu one above ``cs``'s, so that moved values stay in range."""
    r = cs.r + 1
    return (r, None if cs.lam is None else min(r, cs.lam + 1),
            None if cs.mu is None else min(r, cs.mu + 1))


def _perturbed(rng, inst, wide, p_move=0.25):
    """``inst`` (an exact instance) with some lists moved off the graph's
    measures."""
    cs = inst.constraints
    r, lam, mu = _bounds(cs)

    def move(m, hi):
        return {key: _shifted(rng, vals, hi, wide, p_move)
                for key, vals in sorted(m.items())}

    new = cs.replace(r=r, lam=lam, mu=mu, delta_v=move(cs.delta_v, r),
                     delta_e=move(cs.delta_e, r),
                     nu=move(cs.nu, lam) if lam is not None else cs.nu,
                     xi=move(cs.xi, mu) if mu is not None else cs.xi)
    return inst.replace(constraints=new)


def _one_list_moved(rng, inst):
    """``inst`` (an exact instance) with one list of one family moved off
    its measure, for a few lists of each family the kind stores."""
    cs = inst.constraints
    r, lam, mu = _bounds(cs)
    for name, hi in (("delta_v", r), ("delta_e", r), ("nu", lam), ("xi", mu)):
        stored = sorted(getattr(cs, name).items())
        for key, (x,) in rng.sample(stored, min(3, len(stored))):
            m = dict(getattr(cs, name))
            m[key] = _moved(x, hi)
            yield inst.replace(constraints=cs.replace(r=r, lam=lam, mu=mu,
                                                      **{name: m}))


def _one_step_edits(inst):
    g = inst.graph
    steps = [vdel(v) for v in g.vertices()] + [edel(*e) for e in g.edges()]
    if inst.kind != WEDCE:
        steps += [eadd(*p) for p in g.non_adjacent_pairs()]
    return steps


def _regions(inst):
    return tuple((tuple(sorted(c.vertices)), tuple(sorted(c.boundary)),
                  tuple(tuple(sorted(layer)) for layer in c.layers))
                 for c in find_clean_regions(inst))


def _kernel(inst):
    try:
        reduced, trace = kernelize(inst)
    except ValueError as exc:
        return ("refused", str(exc))
    return (tuple((s.rule, s.affected, s.k_delta) for s in trace.steps),
            serialize_instance(reduced))


def _sweep():
    out = []
    for seed in range(SEEDS):
        rng = random.Random(seed)
        kind = KINDS[seed % 4]
        n = 4 + seed % 9
        g = _weighted_gnp(rng, n)
        k = rng.randint(0, 3)
        exact = exact_instance(kind, g, k, {VDEL, EDEL})
        out.append(serialize_instance(exact))
        out.append(tuple(check_constraints(moved, g)
                         for moved in _one_list_moved(rng, exact)))
        wide = _perturbed(rng, exact, wide=True)
        out.append(tuple(
            check_constraints(wide, apply_edit_script(g, (step,)))
            for step in _one_step_edits(wide)))
        if kind != WDCE:
            ops = rng.choice(((VDEL,), (VDEL, EDEL), (EDEL,)))
            if kind != WEDCE and ops == (EDEL,):
                ops = (VDEL,)
            for star in (exact, _perturbed(rng, exact, wide=False)):
                star = star.replace(ops=frozenset(ops))
                out.append((_regions(star), _kernel(star)))
        if n <= 7:
            ops = {VDEL, EDEL} if kind == WEDCE else \
                rng.choice(({VDEL, EDEL, EADD}, {EDEL, EADD}, {EADD}, {VDEL}))
            inst = _perturbed(rng, exact, wide=True, p_move=0.1).replace(
                ops=frozenset(ops))
            res = brute_force_solve(inst)
            witness = res.witness
            out.append((res.answer, witness and (witness.steps, witness.cost)))
            if witness is not None:
                out.append(check_constraints(inst, apply_edit_script(g, witness)))
    return out


def test_checker_consumers_match_recorded_digest():
    got = hashlib.sha256(repr(_sweep()).encode()).hexdigest()
    assert got == DIGEST
