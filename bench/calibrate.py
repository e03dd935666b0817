"""Correction of timings for the speed of a shared machine.

The benchmark runs on a few cores of a host that other tenants share, and
the speed of those cores swings by 30% and more for minutes at a time:
wall and CPU time of the same deterministic item move together, so no
choice of clock removes it.  The benchmark therefore times a fixed
reference computation in a forked child after every item, and scales each
timing by REFERENCE_S / (reference time measured around it).  A scaled
timing is the time the same work would have taken with the reference at
REFERENCE_S, its time on a quiet 2-core 2.1 GHz VM, so on a quiet machine
scaled and raw seconds agree.

The reference imports nothing from purcat, so no change to purcat moves
it; it does the kinds of work purcat does (interpreted loops, big-integer
elimination, small allocations) so that contention slows both alike.
"""

from __future__ import annotations

import os
import random
import statistics
import time

# reference_work() in a forked child, fork to reap, on a quiet 2-core
# 2.1 GHz VM
REFERENCE_S = 0.018

# reference samples on each side of a timing that make up its local speed
WINDOW = 4


def reference_work() -> int:
    rng = random.Random(5)
    n = 14
    a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):  # fraction-free (Bareiss) elimination
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                continue
            a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    table = {}
    for i in range(20000):
        table[i, i % 7] = [i, str(i)]
    return a[n - 1][n - 1] + len(table)


def run_reference() -> float:
    """Wall time of reference_work() in a forked child, fork to reap."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            reference_work()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("reference computation failed")
    return time.perf_counter() - start


def scale(refs: list, at: int) -> float:
    """Factor that brings a timing taken just before refs[at] to reference
    speed: REFERENCE_S over the median of the samples around it."""
    at = min(at, len(refs) - 1)
    window = refs[max(0, at - WINDOW):at + WINDOW + 1]
    return REFERENCE_S / statistics.median(window)
