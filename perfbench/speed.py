"""CPU-speed normalisation of measured times.

On a shared host the effective speed of a core changes by up to 1.5x for
tens of seconds at a time, so the raw wall time of the same work differs
between runs by more than any bound worth setting. The benchmark therefore
times a fixed pure-Python reference loop right before and right after each
measured piece of work and scales the work's wall time to the speed at which
the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

# Best-of-three time of reference_loop() at full speed on a 2-vCPU x86-64
# VM with CPython 3.11; normalised times are wall times at that speed.
REFERENCE_S = 1.4e-3


def reference_loop() -> int:
    """Fixed interpreter work (dict, tuple and set operations, a sort),
    similar in kind to lpodc's own inner loops."""
    counts = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    repeated = set()
    for key, n in counts.items():
        if n > 1:
            repeated.add(key)
    return len(sorted(repeated))


def reference_time() -> float:
    """Best of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return min(times)


def normalise(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled to reference speed, given the reference times
    measured just before and just after it."""
    return elapsed * REFERENCE_S * 2 / (before + after)
