#!/usr/bin/env python3
"""Seeded benchmark for dcedit: end-to-end latency and throughput, per-layer
time and counts.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every instance goes through the path users run: its text is written to a
file and ``dcedit solve <file> --stats`` or ``dcedit tw <file> ...`` runs
in-process through ``dcedit.cli.run_cli`` with stdout and stderr captured.
One process, closed loop, one instance in flight.

Workloads (corpora in ``corpus.py``; each layer works hard in one and idles
in another, so a change to it has a workload that should move and one that
should not):

* ``bst_planted`` -- WEDCE/WERE search trees on planted sparse gnp graphs,
  n in {30, 60, 120}: ``search_tree`` and ``graphs``; no kernelize, oracle
  or treewidth.
* ``small_sweep`` -- 5- and 6-vertex graphs swept through every solve()
  route and both ``tw`` modes: per-call overhead in ``cli``/``io``,
  ``kernelize`` rule attempts, the oracle's universe cache (mostly hits) and
  small treewidth DPs.
* ``wsre_kernel`` -- planted WSRE instances at n of 15-60 plus the gnp
  dead-end family: ``kernelize`` at size, the oracle on fresh kernels
  (cache misses), and the KernelTooLargeError refusals in ``failed_frac``.
* ``tw_dp`` -- ``tw`` in induced and subgraph modes on partial w-trees,
  w <= 4: ``treewidth`` only.

``BENCHMARK.json`` gates on the first two.  The other two are the
memory-heaviest; on a shared 2-vCPU machine their figures moved by more than
25% between runs of the same seed, so they are run by hand when a change
targets kernelize at size or the treewidth DPs.

``--trace 0`` sets up, then runs whole passes over the corpus until
``--seconds`` are spent (rounded to whole passes) and reports the end-to-end
metrics.  Times are scaled to a reference machine speed, measured by a fixed
kernel interleaved with the work (``calibrate.py``), because the shared host
drifts by more than the bounds; the raw wall-clock figures are on the
summary line.

* ``setup_s`` -- importing dcedit plus the median of nine rounds of corpus
  generation and instance-file writing (later rounds rewrite the files in
  place), each round scaled by the kernel timed just before and after it;
  reference loading is not part of it;
* ``latency_p50_ms`` / ``latency_p95_ms`` -- each instance's latency is the
  median over the passes of its time from the run_cli call to its return (a
  refusal counts until it returns); these are the quantiles over instances;
* ``instances_per_s`` -- answered instances divided by the sum of those
  latencies: the closed loop's rate;
* ``peak_rss_mib`` -- ru_maxrss of the process.

``--trace 1`` runs a plain pass, the same pass with the wrappers of
``tracing.py`` installed, and another plain pass; it requires byte-identical
output and identical nodes_visited between the traced and the first plain
pass, and reports the per-layer metrics of the traced pass
(``LAYER_METRICS``) plus the tracing overhead: traced wall time minus the
mean of the two plain passes.

Every run checks every answer against ``reference/<workload>.json`` and
every YES witness with the independent checker in ``check.py``.  A wrong
answer, a rejected witness, output that changes between passes, an oracle
call outside its envelope, or a broken layer-isolation expectation makes
the result ``"correct": false`` and the exit code 1.  The last stdout line
is the result object; the line before it carries run metadata and the
counts behind the fractions.  Full results (and spans, when traced) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bst_planted", "small_sweep", "wsre_kernel", "tw_dp")
SETUP_ROUNDS = 9

E2E_METRICS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mib": "MiB",
}

LAYER_METRICS = {
    "cli.self_s": "s",
    "io.parse_s": "s",
    "io.bytes_in": "bytes",
    "graphs.builds": "count",
    "graphs.build_s": "s",
    "search_tree.nodes": "count",
    "search_tree.s": "s",
    "search_tree.us_per_node": "us",
    "search_tree.bound_used_max": "ratio",
    "search_tree.nodes_changed": "count",
    "kernelize.calls": "count",
    "kernelize.s": "s",
    "kernelize.star_checks": "count",
    "kernelize.star_s": "s",
    "kernelize.region_builds": "count",
    "kernelize.regions_s": "s",
    "kernelize.regions_per_fire": "ratio",
    **{f"kernelize.fired.rr{i}": "count" for i in range(1, 7)},
    "kernelize.shrink": "ratio",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.universe_builds": "count",
    "oracle.universe_hits": "count",
    "oracle.hit_ratio": "ratio",
    "oracle.candidates_checked": "count",
    "oracle.envelope_warnings": "count",
    "solve.failed.kernel_too_large": "count",
    "solve.failed.other": "count",
    "treewidth.decomp_s": "s",
    "treewidth.width_max": "count",
    "treewidth.validate_s": "s",
    "treewidth.nice_nodes": "count",
    "treewidth.nice_s": "s",
    "treewidth.dp_s": "s",
    "failed_frac": "ratio",
    "wrong_frac": "ratio",
    "trace.overhead_s": "s",
}

# Layers a workload bypasses: their counters must stay at 0 in the traced run,
# so that "no change" predictions on that workload can be trusted.
ISOLATION = {
    "bst_planted": ("kernelize.calls", "oracle.calls", "treewidth.nice_nodes"),
    "tw_dp": ("search_tree.nodes", "kernelize.calls", "oracle.calls"),
}

# Workloads that must contain both YES and NO answers.
MIXED_ANSWERS = ("bst_planted", "small_sweep")


# -- environment ----------------------------------------------------------------


def import_dcedit() -> float:
    """Import dcedit from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "dcedit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dcedit sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import dcedit  # noqa: F401
    import dcedit.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(dcedit.__file__).resolve().parent != (src / "dcedit").resolve():
        raise SystemExit(f"perfbench: imported dcedit from {dcedit.__file__}, not {src}")
    return elapsed


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


# -- running the corpus -----------------------------------------------------------


def set_up(corpus, workload: str, seed: int, work: Path):
    """Generate the seed's corpus and write one file per item into ``work``.

    Later rounds rewrite the files of the first in place, without first
    truncating them: creating thousands of files, or freeing and
    re-allocating their blocks (which, on a file system mounted with online
    discard, waits for the disk), costs whatever the disk has to spare that
    second, which says nothing about dcedit.
    """
    start = time.perf_counter()
    items = corpus.build_corpus(workload, seed)
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        path = str(work / f"{i:05d}.txt")
        data = item.text.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
        paths.append(path)
    return items, paths, time.perf_counter() - start


def run_pass(check, items, paths, tracer=None, calibrated=False):
    """One closed-loop pass.

    Returns (outcomes, wall seconds, envelope warnings, kernel timings); the
    timings, in the form ``calibrate.scales`` takes, are taken only when
    ``calibrated``, before the first instance, about every
    ``calibrate.EVERY_S`` seconds and after the last one.  The oracle's
    universe cache is emptied first, so every pass (traced or not) sees the
    same cache hits and misses.
    """
    import dcedit.oracle
    universe = getattr(dcedit.oracle, "_universe", None)
    if hasattr(universe, "cache_clear"):
        universe.cache_clear()
    gc.collect()
    outcomes, timings = [], []
    if calibrated:
        timings.append((0, calibrate.time_kernel()))
        last = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for i, (item, path) in enumerate(zip(items, paths)):
            if tracer is not None:
                tracer.instance = item.uid
            outcomes.append(check.invoke([item.command, path, *item.args]))
            if calibrated and time.perf_counter() - last >= calibrate.EVERY_S:
                timings.append((i + 1, calibrate.time_kernel()))
                last = time.perf_counter()
        wall = time.perf_counter() - start
    if calibrated:
        timings.append((len(items), calibrate.time_kernel()))
    envelope = sum("envelope" in str(w.message) for w in caught)
    return outcomes, wall, envelope, timings


def evaluate(check, items, outcomes, reference) -> dict:
    """Check one pass against the reference; counts and the problems found."""
    wrong, failures, problems = [], Counter(), []
    unchecked = nodes_changed = 0
    for item, out in zip(items, outcomes):
        expected = reference.get(item.uid)
        if expected is None:
            raise SystemExit(f"perfbench: {item.uid} has no reference; "
                             "run perfbench/make_reference.py")
        _, truth, ref_nodes = expected
        if out.answered:
            why = check.answer_problem(item.command, item.inst, out, bool(truth))
            if why:
                wrong.append(item.uid)
                problems.append(f"wrong: {item.uid}: {why}")
            unchecked += out.code == 0 and item.command == "solve" \
                and not check.has_witness(out)
        else:
            failures[out.failure] += 1
        nodes_changed += out.nodes != ref_nodes
    return {"wrong": len(wrong), "failed": sum(failures.values()),
            "failures": failures, "witness_unchecked": unchecked,
            "nodes_changed": nodes_changed, "problems": problems}


def same_outputs(a, b):
    return [(x.code, x.stdout, x.nodes) == (y.code, y.stdout, y.nodes) for x, y in zip(a, b)]


def corpus_guards(workload, items, reference) -> list:
    answers = {reference[item.uid][1] for item in items if item.uid in reference}
    if workload in MIXED_ANSWERS and answers != {0, 1}:
        return [f"corpus: {workload} needs both YES and NO answers, has {sorted(answers)}"]
    return []


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics ----------------------------------------------------------------------


def instance_latencies(passes) -> list:
    """Each instance's median scaled time over the passes, in seconds."""
    scaled = [[out.seconds * f
               for out, f in zip(outcomes, calibrate.scales(len(outcomes), timings))]
              for outcomes, _, _, timings in passes]
    return [statistics.median(column) for column in zip(*scaled)]


def e2e_metrics(setup_s, latencies, evaluation) -> dict:
    return {
        "setup_s": setup_s,
        "instances_per_s": (len(latencies) - evaluation["failed"]) / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p95_ms": 1000.0 * statistics.quantiles(latencies, n=20)[18],
        "peak_rss_mib": peak_rss_mib(),
    }


def raw_figures(setup_raw_s, passes, evaluation) -> dict:
    """The same figures in unscaled wall-clock time, for the summary line."""
    samples = [out.seconds for outcomes, _, _, _ in passes for out in outcomes]
    answered = (len(passes[0][0]) - evaluation["failed"]) * len(passes)
    kernel = [s for _, _, _, timings in passes for _, s in timings]
    return {
        "setup_s": setup_raw_s,
        "instances_per_s": answered / sum(samples),
        "latency_p50_ms": 1000.0 * statistics.median(samples),
        "latency_p95_ms": 1000.0 * statistics.quantiles(samples, n=20)[18],
        "kernel_p50_ms": 1000.0 * statistics.median(kernel),
        "kernel_min_ms": 1000.0 * min(kernel),
    }


def layer_metrics(tracer, cache, evaluation, attempted, envelope, overhead) -> dict:
    calls, total, self_s, rec = tracer.calls, tracer.total, tracer.self_s, tracer.records
    nodes = sum(n for n, _ in rec["search_tree"])
    kern = rec["kernelize"]
    fired = Counter(rule for _, _, rules in kern for rule in rules)
    n_before = sum(before for before, _, _ in kern)
    hits, misses = (cache.hits, cache.misses) if cache else (0, 0)
    m = {
        "cli.self_s": self_s["cli"],
        "io.parse_s": total["io.parse"],
        "io.bytes_in": sum(rec["io.parse"]),
        "graphs.builds": calls["graphs.build"],
        "graphs.build_s": total["graphs.build"],
        "search_tree.nodes": nodes,
        "search_tree.s": total["search_tree"],
        "search_tree.us_per_node": 1e6 * total["search_tree"] / nodes if nodes else 0.0,
        "search_tree.bound_used_max": max((n / b for n, b in rec["search_tree"] if b),
                                          default=0.0),
        "search_tree.nodes_changed": evaluation["nodes_changed"],
        "kernelize.calls": calls["kernelize"],
        "kernelize.s": total["kernelize"],
        "kernelize.star_checks": calls["kernelize.star"],
        "kernelize.star_s": total["kernelize.star"],
        "kernelize.region_builds": calls["kernelize.regions"],
        "kernelize.regions_s": total["kernelize.regions"],
        "kernelize.regions_per_fire":
            calls["kernelize.regions"] / max(sum(fired.values()), 1),
        **{f"kernelize.fired.rr{i}": fired[f"rr{i}"] for i in range(1, 7)},
        "kernelize.shrink":
            sum(after for _, after, _ in kern) / n_before if n_before else 1.0,
        "oracle.calls": calls["oracle"],
        "oracle.s": total["oracle"],
        "oracle.universe_builds": misses,
        "oracle.universe_hits": hits,
        "oracle.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "oracle.candidates_checked": calls["oracle.candidates"],
        "oracle.envelope_warnings": envelope,
        "solve.failed.kernel_too_large": evaluation["failures"]["kernel_too_large"],
        "solve.failed.other": evaluation["failures"]["other"],
        "treewidth.decomp_s": total["treewidth.decomp"],
        "treewidth.width_max": max(rec["treewidth.decomp"], default=0),
        "treewidth.validate_s": total["treewidth.validate"],
        "treewidth.nice_nodes": sum(rec["treewidth.nice"]),
        "treewidth.nice_s": total["treewidth.nice"],
        "treewidth.dp_s": self_s["treewidth.dp"],
        "failed_frac": evaluation["failed"] / attempted,
        "wrong_frac": evaluation["wrong"] / attempted,
        "trace.overhead_s": overhead,
    }
    assert m.keys() == LAYER_METRICS.keys()
    return m


# -- one workload -------------------------------------------------------------------


def kernel_seconds() -> list:
    return [calibrate.time_kernel() for _ in range(3)]


def run_workload(args) -> int:
    import_s = import_dcedit()
    import check
    import corpus

    meta = metadata(args)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # each round is scaled by the kernel timed just before and after it;
        # the import, which runs once, by the first of those
        before = kernel_seconds()
        import_scale = calibrate.REFERENCE_S / statistics.median(before)
        rounds, raw = [], []
        for _ in range(SETUP_ROUNDS):
            items = paths = None  # free the previous round's corpus first
            items, paths, seconds = set_up(corpus, args.workload, args.seed, work)
            after = kernel_seconds()
            rounds.append(seconds * calibrate.REFERENCE_S / statistics.median(before + after))
            raw.append(seconds)
            before = after
        setup_s = import_s * import_scale + statistics.median(rounds)
        setup_raw_s = import_s + statistics.median(raw)
        reference = json.loads((HERE / "reference" / f"{args.workload}.json")
                               .read_text(encoding="utf-8"))
        problems = corpus_guards(args.workload, items, reference)
        # the corpus and reference are the harness's, not dcedit's: keep the
        # collector from tracing them during the timed passes
        gc.collect()
        gc.freeze()
        if args.trace:
            result, summary = traced_run(args, check, items, paths, reference, problems)
        else:
            result, summary = timed_run(args, check, items, paths, reference,
                                        (setup_s, setup_raw_s), problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary["problems"] = problems[:20]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "summary": summary, **result}, indent=1) + "\n", encoding="utf-8")
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta, "summary": {k: v for k, v in summary.items()
                                                 if k != "instances"}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_run(args, check, items, paths, reference, setups, problems):
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(check, items, paths, calibrated=True))
        spent = time.perf_counter() - start
        if spent + 0.5 * spent / len(passes) > args.seconds:
            break
    first = passes[0][0]
    evaluation = evaluate(check, items, first, reference)
    problems += evaluation["problems"]
    for outcomes, _, _, _ in passes[1:]:
        changed = same_outputs(first, outcomes).count(False)
        if changed:
            problems.append(f"output changed between passes on {changed} instances")
    envelope = sum(e for _, _, e, _ in passes)
    if envelope:
        problems.append(f"{envelope} oracle calls outside the envelope")
    attempted = len(items) * len(passes)
    latencies = instance_latencies(passes)
    metrics = e2e_metrics(setups[0], latencies, evaluation)
    summary = {
        "passes": len(passes),
        "pass_wall_s": [wall for _, wall, _, _ in passes],
        "samples": attempted,
        "latency_samples": len(latencies),
        "raw": raw_figures(setups[1], passes, evaluation),
        "failed_frac": evaluation["failed"] / len(items),
        "wrong_frac": evaluation["wrong"] / len(items),
        "witness_unchecked": evaluation["witness_unchecked"],
        "nodes_changed": evaluation["nodes_changed"],
        "instances": [[item.uid, out.code, out.nodes, latency]
                      for item, out, latency in zip(items, first, latencies)],
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": evaluation["failed"] * len(passes),
        "metrics": {k: {"value": v, "unit": E2E_METRICS[k]} for k, v in metrics.items()},
    }
    return result, summary


def traced_run(args, check, items, paths, reference, problems):
    import dcedit.oracle
    from tracing import Tracer

    plain, plain_wall, plain_env, _ = run_pass(check, items, paths)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall, traced_env, _ = run_pass(check, items, paths, tracer)
        universe = getattr(dcedit.oracle, "_universe", None)
        cache = universe.cache_info() if hasattr(universe, "cache_info") else None
    finally:
        tracer.uninstall()
    # a plain pass on each side of the traced one, so warm-up is not
    # counted as tracing overhead
    _, after_wall, after_env, _ = run_pass(check, items, paths)
    overhead = traced_wall - (plain_wall + after_wall) / 2
    differ = [item.uid for item, same in zip(items, same_outputs(plain, traced)) if not same]
    if differ:
        problems.append(f"traced run changed output or nodes_visited on {len(differ)} "
                        f"instances, first {differ[0]}")
    evaluation = evaluate(check, items, plain, reference)
    problems += evaluation["problems"]
    envelope = plain_env + traced_env + after_env
    if envelope:
        problems.append(f"{envelope} oracle calls outside the envelope")
    metrics = layer_metrics(tracer, cache, evaluation, len(items), envelope, overhead)
    for name in ISOLATION.get(args.workload, ()):
        if metrics[name]:
            problems.append(f"isolation: {name} = {metrics[name]} on {args.workload}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w",
              encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    summary = {"plain_wall_s": [plain_wall, after_wall], "traced_wall_s": traced_wall,
               "spans": len(tracer.spans), "instances": len(items)}
    result = {
        "correct": not problems,
        "attempted": 3 * len(items),
        "failed": 3 * evaluation["failed"],
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()},
    }
    return result, summary


# -- all workloads --------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS stays per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded benchmark for dcedit.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
