"""A fixed reference computation that gauges how fast the machine is right now.

The host this benchmark runs on is shared, and its speed swings by up to half
between runs a minute apart.  So every timed operation is accompanied by a
run of `work()`, a fixed mix of what unitlift spends its time on: a modular
multiplication table built in Python, dict and set counting over it, and
small numpy table operations.  A timing scaled by REF_S / (the median time
of `work()` around it) reads as it would on a machine where `work()` takes
REF_S, so the host's swings cancel out while the program's own speed shows
in full.

`work()` must never change: REF_S belongs to this exact code, and a change
would move every scaled metric.
"""

from __future__ import annotations

import statistics
import time

import numpy

# median time of work() on the machine the benchmark was built on: a
# 2-vCPU KVM guest (Intel Xeon), Python 3.11, numpy 2.4
REF_S = 0.0021

_ARRAY = numpy.arange(64 * 64).reshape(64, 64)


def work() -> int:
    n = 61
    table = [[a * b % n for b in range(n)] for a in range(n)]
    counts: dict[int, int] = {}
    for row in table:
        for value in row:
            counts[value] = counts.get(value, 0) + 1
    rows = {tuple(row[:8]) for row in table}
    for _ in range(20):
        masked = (_ARRAY * 3 + 1) % 97
        numpy.unique(masked[masked[:, 0] % 5 == 0])
    return len(counts) + len(rows)


def timed() -> float:
    """Seconds one run of work() takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """The factor that turns a timing taken alongside these samples into one
    at reference speed."""
    return REF_S / statistics.median(samples)
