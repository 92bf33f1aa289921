"""The machine's current speed, from a fixed pure-Python loop.

On a shared machine the CPU's speed drifts.  On the 2-core machine this
benchmark was written on, a fixed pure-Python loop ran anywhere from 5.5 to
15 ms from one second to the next, and the pass times of `pair-scalar` and
`verify-grid` followed it: over 20-second windows their median pass time
spread by 0.12 and 0.17 (interquartile range over median), against 0.017
and 0.028 once each pass is divided by the loop's time around it.  A
workload whose class sets ``scaled`` reports its pass times that way, as the
time the pass would take where ``reference_work`` takes ``REFERENCE_S``.
`rank-100k` does not: its 3-second operations are longer than the speed's
swings, its raw median spread by 0.07, and dividing by loop samples taken
between its operations widened that to 0.13.
"""
from __future__ import annotations

import math
import statistics
import time

#: Nominal time of one `reference_work` call, in seconds.
REFERENCE_S = 0.010


def reference_work() -> float:
    acc = 0.0
    seen: dict[int, float] = {}
    for i in range(30_000):
        x = math.sqrt(i + 1.5)
        seen[i & 255] = x
        acc += x / (1.0 + seen.get(i & 127, 0.0))
    return acc


class Speed:
    """Times of `reference_work`, each taken between two timed passes."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)

    def scale_last(self) -> float:
        """Seconds at reference speed per measured second, for the pass
        between the last two samples."""
        return REFERENCE_S / statistics.mean(self.samples[-2:])
