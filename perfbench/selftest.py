#!/usr/bin/env python3
"""Self-checks of the benchmark itself (not collected by pytest).

    python3 perfbench/selftest.py

* corpus guards: a seed gives a byte-identical corpus, another seed a
  different one; corpus.py imports nothing but the standard library and the
  top-level ``dcedit`` API; the reference files cover every pool unit;
  bst_planted and small_sweep hold both YES and NO answers;
* traced-run equivalence: on a slice of every workload, the traced pass
  prints the same bytes and node counts as the plain pass, the oracle stays
  inside its envelope, and the layer-isolation counters of ``run.ISOLATION``
  are 0;
* the checks can fail: a wrapper that changes a result is caught by the
  equivalence check, a tracer that touches a function-identity table refuses
  to install, and a tampered witness is rejected;
* speed scaling: each instance is scaled by the kernel timings around it.
"""

from __future__ import annotations

import ast
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_dcedit()

import calibrate  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

FAILURES = []


def require(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def reference(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


def corpus_guards() -> None:
    for w in corpus.WORKLOADS:
        a = [(i.uid, i.text) for i in corpus.build_corpus(w, 11)]
        b = [(i.uid, i.text) for i in corpus.build_corpus(w, 11)]
        c = [(i.uid, i.text) for i in corpus.build_corpus(w, 12)]
        require(a == b, f"{w}: same seed, byte-identical corpus")
        require(a != c, f"{w}: another seed, another corpus")
        ref = reference(w)
        uids = {i.uid for cell, n in corpus.pool_units(w) for i in corpus.make_unit(w, cell, n)}
        require(uids == set(ref), f"{w}: reference covers exactly the pool")
        if w in run.MIXED_ANSWERS:
            require({v[1] for v in ref.values()} == {0, 1}, f"{w}: YES and NO answers")
    tree = ast.parse((HERE / "corpus.py").read_text(encoding="utf-8"))
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    allowed = {"__future__", "random", "dataclasses", "typing", "dcedit"}
    require(modules <= allowed, f"corpus.py imports only {sorted(allowed)}: {sorted(modules)}")


def traced_slice(workload, items, paths, sabotage=None):
    plain, _, plain_env, _ = run.run_pass(check, items, paths)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if sabotage:
            sabotage()
        traced, _, traced_env, _ = run.run_pass(check, items, paths, tracer)
    finally:
        tracer.uninstall()
    evaluation = run.evaluate(check, items, plain, reference(workload))
    metrics = run.layer_metrics(tracer, None, evaluation, len(items),
                                plain_env + traced_env, 0.0)
    return all(run.same_outputs(plain, traced)), metrics, evaluation


def equivalence(work: Path) -> None:
    for w in corpus.WORKLOADS:
        items = [i for cell, n in corpus.sample_units(w, 3)[:12]
                 for i in corpus.make_unit(w, cell, n)]
        paths = []
        for k, item in enumerate(items):
            path = work / f"{w}-{k}.txt"
            path.write_text(item.text, encoding="utf-8")
            paths.append(str(path))
        same, metrics, evaluation = traced_slice(w, items, paths)
        require(same, f"{w}: traced output and nodes_visited equal the plain run")
        require(not evaluation["problems"], f"{w}: answers match the reference")
        require(metrics["oracle.envelope_warnings"] == 0, f"{w}: oracle stays in its envelope")
        for name in run.ISOLATION.get(w, ()):
            require(metrics[name] == 0, f"{w}: {name} = 0")
        if w == "bst_planted":
            def bump():
                real = tracing.search_tree.solve_wedce_bst

                def off_by_one(inst):
                    rep = real(inst)
                    return replace(rep, nodes_visited=rep.nodes_visited + 1)
                tracing.search_tree.solve_wedce_bst = off_by_one
            same, _, _ = traced_slice(w, items, paths, sabotage=bump)
            require(not same, "a wrapper that changes nodes_visited is caught")
            outs = [(item, check.invoke([item.command, path, *item.args]))
                    for item, path in zip(items, paths)]
            item, out = next((i, o) for i, o in outs if len(o.stdout.splitlines()) > 1)
            require(check.witness_problem(item.inst, out) is None, "a real witness passes")
            first, *steps = out.stdout.splitlines()
            for what, text in (("missing an edit", "\n".join([first] + steps[:-1])),
                               ("with no edits", "YES cost=0")):
                tampered = replace(out, stdout=text + "\n")
                require(check.witness_problem(item.inst, tampered) is not None,
                        f"a witness {what} is rejected")


def identity_tables() -> None:
    rules = tracing.kernelize.RULES_BY_NAME
    real = rules["rr1"]

    class Meddling(tracing.Tracer):
        def _timed(self, fn, name, span):
            rules["rr1"] = lambda inst: real(inst)
            return super()._timed(fn, name, span)

    try:
        Meddling().install()
        refused = False
    except RuntimeError:
        refused = True
    finally:
        rules["rr1"] = real
    require(refused, "a tracer that replaces a rule-table entry refuses to install")


def speed_scaling() -> None:
    ref = calibrate.REFERENCE_S
    # the kernel, timed before each of 10 instances and after the last, runs
    # at reference speed up to instance 5 and at half speed from then on
    timings = [(i, ref if i <= 5 else 2 * ref) for i in range(11)]
    got = calibrate.scales(10, timings)
    require(len(got) == 10 and got[:3] == [1.0] * 3 and got[-3:] == [0.5] * 3,
            f"speed scaling follows the local kernel timings: {got}")


def main() -> int:
    speed_scaling()
    corpus_guards()
    identity_tables()
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        equivalence(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
