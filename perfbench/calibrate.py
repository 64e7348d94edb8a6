"""Machine-speed calibration for the timed runs.

The benchmark runs on a few cores of a shared host, whose speed drifts by up
to about 1.5x over seconds and minutes, much more than the changes the
benchmark must resolve.  Every timed pass therefore interleaves a fixed
pure-Python kernel with the instances, about every ``EVERY_S`` seconds, and
scales each instance's time by ``REFERENCE_S / <local kernel time>``: the
median of the ``WINDOW`` kernel timings on each side of the instance.  The
reported times are what the instance would have taken at the speed at which
the kernel takes ``REFERENCE_S`` -- about this kernel's median on the 2-vCPU
Xeon VM the benchmark was written on.

The kernel imports nothing from dcedit, so a change to dcedit moves the
scaled times exactly as it moves the raw ones; only the host's drift, which
slows the kernel and dcedit alike, cancels out.  It allocates the same kinds
of objects dcedit's solvers do (dicts of sets, comprehensions, small tuples)
and runs with the cyclic collector off, so that what dcedit leaves on the
heap cannot change its time.  Raw wall-clock figures stay in the run's
summary line.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Tuple

REFERENCE_S = 0.002
EVERY_S = 0.05
WINDOW = 2


def kernel() -> int:
    """A fixed workload of about 2 ms: a 60-vertex graph, copied without each
    of 30 vertices in turn, with degrees counted on every copy."""
    adj = {v: set() for v in range(60)}
    x = 12345
    for _ in range(150):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % 60
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % 60
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    total = 0
    for drop in range(0, 60, 2):
        g = {v: {w for w in nb if w != drop} for v, nb in adj.items() if v != drop}
        deg = {v: len(nb) for v, nb in g.items()}
        edges = [(u, w) for u, nb in g.items() for w in nb if u < w]
        total += max(deg.values()) + len(edges) + sum(1 for v in g if deg[v] % 2)
    return total


def time_kernel() -> float:
    """Seconds one run of the kernel takes now, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scales(count: int, samples: List[Tuple[int, float]]) -> List[float]:
    """The scale factor of each of ``count`` instances run in one pass.

    ``samples`` holds ``(i, seconds)`` per kernel timing, in order, where
    ``i`` is the number of instances that had run before it; the first is
    taken before instance 0.
    """
    out, after = [], 0
    for i in range(count):
        while after < len(samples) and samples[after][0] <= i:
            after += 1
        window = samples[max(after - WINDOW, 0):after + WINDOW]
        out.append(REFERENCE_S / statistics.median(s for _, s in window))
    return out
