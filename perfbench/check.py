"""Reading CLI output and checking it independently of the solvers.

A YES witness is re-checked with the public API alone: ``EditScript.build``
prices and validates the steps on the input graph, ``apply_edit_script``
applies them, ``check_constraints`` tests the result, and the cost must match
the printed cost and stay within the budget.
"""

from __future__ import annotations

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import List, Optional, Tuple

import dcedit.cli
from dcedit import EditScript, ProblemInstance, apply_edit_script, check_constraints

_NODES = re.compile(r"^nodes_visited=(\d+)$", re.M)
_YES = re.compile(r"^YES cost=(-?\d+)$")


@dataclass(frozen=True)
class Outcome:
    """One CLI invocation as the user sees it."""

    seconds: float
    code: Optional[int]       # None: an exception escaped run_cli
    stdout: str
    stderr: str

    @property
    def answered(self) -> bool:
        return self.code in (0, 1)

    @property
    def nodes(self) -> Optional[int]:
        """nodes_visited from `solve --stats`, if printed."""
        m = _NODES.search(self.stderr)
        return int(m.group(1)) if m else None

    @property
    def failure(self) -> Optional[str]:
        """None when answered, else the reason: kernel_too_large or other."""
        if self.answered:
            return None
        if self.code == 2 and "kernel too large" in self.stderr:
            return "kernel_too_large"
        return "other"


def invoke(argv: List[str]) -> Outcome:
    """Run one CLI command in-process, timing only the run_cli call.

    ``run_cli`` is looked up at call time, so a traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = dcedit.cli.run_cli(argv)
        except Exception as exc:  # an escaped exception fails the instance, not the run
            code = None
            err.write(f"exception escaped run_cli: {exc!r}\n")
        elapsed = time.perf_counter() - start
    return Outcome(elapsed, code, out.getvalue(), err.getvalue())


def _parse_steps(lines) -> Tuple[tuple, ...]:
    steps = []
    for line in lines:
        op, *ids = line.split()
        if op not in ("vdel", "edel", "eadd") or len(ids) != (1 if op == "vdel" else 2):
            raise ValueError(f"unreadable edit {line!r}")
        steps.append((op, *map(int, ids)))
    return tuple(steps)


def has_witness(out: Outcome) -> bool:
    """False for a YES printed with the budget in place of a witness, which
    the CLI does (and says so on stderr) when kernel rules rewrote the input."""
    return out.code == 0 and "witness unavailable" not in out.stderr


def witness_problem(inst: ProblemInstance, out: Outcome) -> Optional[str]:
    """Why the YES witness printed in ``out`` is not a valid solution, or None."""
    first, *rest = out.stdout.splitlines() or [""]
    m = _YES.match(first)
    if m is None:
        return f"unexpected answer line {first!r}"
    if not has_witness(out):
        return None if not rest else "edits printed beside an unavailable witness"
    try:
        steps = _parse_steps(rest)
        script = EditScript.build(inst.graph, steps)
        edited = apply_edit_script(inst.graph, script)
    except ValueError as exc:
        return f"illegal witness: {exc}"
    if script.cost != int(m.group(1)):
        return f"printed cost {m.group(1)} but the edits cost {script.cost}"
    if script.cost > inst.k:
        return f"witness cost {script.cost} exceeds budget {inst.k}"
    if any(step[0] not in inst.ops for step in steps):
        return "witness uses an operation the instance does not allow"
    if not check_constraints(inst, edited):
        return "constraints unsatisfied after applying the witness"
    return None


def answer_problem(command: str, inst: ProblemInstance, out: Outcome,
                   truth: bool) -> Optional[str]:
    """Why an answered outcome is wrong, or None.  ``truth`` is the reference."""
    answer = out.code == 0
    if answer != truth:
        return f"answered {'YES' if answer else 'NO'}, reference says {'YES' if truth else 'NO'}"
    if not answer:
        return None if out.stdout == "NO\n" else f"unexpected NO output {out.stdout!r}"
    if command == "tw":
        return None if out.stdout == "YES\n" else f"unexpected YES output {out.stdout!r}"
    return witness_problem(inst, out)
