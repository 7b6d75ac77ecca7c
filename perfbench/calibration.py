"""Machine-speed calibration, so that timings survive a shared host.

On the reference host (a 2-core VM), other tenants slow a core down by
1.3-1.6x in phases that last from under a second to over a minute.  Raw
timings of one round moved by 40% between rounds; the same rounds,
normalized as below, moved by 4%.

A fixed pure-Python loop (`probe`: tuple-keyed dict merges, a heap and
Fraction sums, the operations the engines spend their time in) is timed
between requests, at least every `INTERVAL_S`.  A request's time is divided
by the mean of the probes just before and just after it and multiplied by
`REFERENCE_S`, the probe's time on the reference host when unloaded.  Times
so normalized read as seconds on the unloaded reference host.  This code
must not change: every timing in the benchmark is expressed in its units.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.001


def probe() -> int:
    table = {(0, 0): 0}
    for _ in range(8):
        merged = {}
        for (a, b), cost in table.items():
            for da, db, dc in ((0, 0, 0), (1, 0, 2), (1, 1, 3), (2, 1, 1)):
                key = (a + da, b + db)
                if cost + dc < merged.get(key, 1 << 30):
                    merged[key] = cost + dc
        table = merged
    heap: list = []
    for i in range(800):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
    while heap:
        heapq.heappop(heap)
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    return len(table) + total.denominator % 7


def speed_now() -> float:
    """Median time of five probes in a row."""
    times = Normalizer()
    for _ in range(5):
        times.probe()
    return statistics.median(times.times)


class Normalizer:
    """Probe times along a timeline, and normalization of intervals on it."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if not self.starts or now - self.starts[-1] - self.times[-1] >= INTERVAL_S:
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def normalize(self, start: float, duration: float) -> float:
        """`duration` of an interval that began at `start`, in reference
        seconds: divided by the mean probe time around it."""
        after = bisect.bisect(self.starts, start)
        before = max(after - 1, 0)
        after = min(after, len(self.times) - 1)
        return duration * REFERENCE_S * 2 / (self.times[before] + self.times[after])
