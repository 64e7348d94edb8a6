"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces module-global names that ``dcedit`` looks up at
call time with wrappers that time each call, count it, and hand its result to
a hook; ``uninstall()`` puts the originals back.  Nothing inside ``src/``
changes.  Tables that hold function identities (``kernelize._STRUCTURAL``,
``kernelize.RULES_BY_NAME``) are never touched: ``_applicable_rules``
compares rules with ``is``, so a wrapper there would change which rules run.
``install()`` checks that those tables still hold the original functions.

Coarse calls become spans (name, start, end, parent span, instance id), kept
in memory and written out by the caller.  Calls made thousands of times per
instance (graph construction, star checks, clean-region builds) only add to
counters and timers, and candidate checks only to a counter, so tracing
stays affordable.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

# import_module, because the package's ``kernelize`` attribute is the function
cli, graphs, kernelize, oracle, search_tree, treewidth = (
    import_module(f"dcedit.{name}")
    for name in ("cli", "graphs", "kernelize", "oracle", "search_tree", "treewidth"))

# (module, attribute, layer name, span?)
TIMED = (
    (cli, "run_cli", "cli", True),
    (cli, "parse_instance", "io.parse", True),
    (cli, "solve", "solve", True),
    (cli, "brute_force_solve", "oracle", True),
    (cli, "solve_induced_regular", "treewidth.dp", True),
    (cli, "solve_regular_subgraph", "treewidth.dp", True),
    (search_tree, "solve_wedce_bst", "search_tree", True),
    (search_tree, "solve_were_bst", "search_tree", True),
    (search_tree, "solve_wsre", "solve.wsre", True),
    (search_tree, "kernelize", "kernelize", True),
    (search_tree, "brute_force_solve", "oracle", True),
    (treewidth, "greedy_decomposition", "treewidth.decomp", True),
    (treewidth, "validate_decomposition", "treewidth.validate", True),
    (treewidth, "make_nice", "treewidth.nice", True),
    (kernelize, "star_violation", "kernelize.star", False),
    (kernelize, "find_clean_regions", "kernelize.regions", False),
)

# counted, not timed: called once per scanned candidate
COUNTED = ((oracle, "_candidate_satisfies", "oracle.candidates"),)

# what each layer's hook keeps from a call: (args, result) -> small record
EXTRACT = {
    "io.parse": lambda args, res: len(args[0]),
    "search_tree": lambda args, res: (res.nodes_visited, res.tree_bound),
    "kernelize": lambda args, res: (args[0].graph.n, res[0].graph.n,
                                    tuple(step.rule for step in res[1].steps)),
    "treewidth.decomp": lambda args, res: res.width,
    "treewidth.nice": lambda args, res: len(res.nodes),
}

IDENTITY_TABLES = tuple(getattr(kernelize, name, {})
                        for name in ("_STRUCTURAL", "RULES_BY_NAME"))


def _identities() -> List[int]:
    out = []
    for table in IDENTITY_TABLES:
        for value in table.values():
            out.extend(id(f) for f in (value if isinstance(value, tuple) else (value,)))
    return out


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Tuple]] = []   # (name, start, end, parent, instance)
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)   # inclusive seconds
        self.self_s: Dict[str, float] = defaultdict(float)  # minus traced children
        self.records: Dict[str, list] = defaultdict(list)   # EXTRACT output per call
        self.instance: Optional[str] = None
        self._stack: List[list] = []                        # [child seconds, span id]
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn: Callable, name: str, span: bool) -> Callable:
        stack, calls, total, self_s = self._stack, self.calls, self.total, self.self_s
        spans, extract = self.spans, EXTRACT.get(name)
        records = self.records[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id if span else (parent[1] if parent else None)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span:
                    spans[span_id] = (name, start, end,
                                      parent[1] if parent else None, self.instance)
            if extract is not None:
                records.append(extract(args, result))
            return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        before = _identities()
        originals = {}
        for module, attr, name, span in TIMED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            # one wrapper per original, so a function bound under two module
            # names is still one layer
            key = (id(fn), name)
            if key not in originals:
                originals[key] = self._timed(fn, name, span)
            setattr(module, attr, originals[key])
        for module, attr, name in COUNTED:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._counted(fn, name))
        init = graphs.WeightedGraph.__init__
        self._saved.append((graphs.WeightedGraph, "__init__", init))
        graphs.WeightedGraph.__init__ = self._timed(init, "graphs.build", False)
        if _identities() != before:
            self.uninstall()
            raise RuntimeError("tracing changed a function-identity table")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
