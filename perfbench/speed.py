"""Scaling measured times to a fixed reference machine speed.

The machines this benchmark runs on share their cores with other tenants,
and the speed one process gets swings by up to 40% within seconds (measured
on a 2-core host: a fixed pure-Python loop took 93 to 189 ms over 90 s).
Run-to-run spread that large would hide any change in the program.  So every
timed operation is bracketed by short runs of a fixed pure-Python loop, and
its time is scaled by ``REFERENCE_S / loop time``: a reported second is a
second on a machine where the loop takes ``REFERENCE_S``.  Raw times are
kept next to the scaled ones in the full results.
"""
from __future__ import annotations

import bisect
import statistics
import time

LOOP_ITERATIONS = 50_000
#: Loop runs per sample; the fastest counts, since a preempted run only reads slow.
LOOP_RUNS = 3
#: Loop time that defines the reference speed (about the loop's time here).
REFERENCE_S = 0.0025
#: Least time between two calibration samples.
INTERVAL_S = 0.2


def loop_s() -> float:
    """Fastest of LOOP_RUNS timings of the calibration loop."""
    fastest = float("inf")
    for _ in range(LOOP_RUNS):
        started = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i & 7
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


class SpeedTrack:
    """Calibration samples taken between operations, and the scale they give."""

    def __init__(self, times=(), loops=()):
        self.times: list[float] = list(times)  # when each sample ended, ascending
        self.loops: list[float] = list(loops)

    def sample(self) -> None:
        took = loop_s()
        self.times.append(time.perf_counter())
        self.loops.append(took)

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference-speed factor for an interval, from the samples just before and after."""
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = self.loops[max(0, before - 1):before] + self.loops[after:after + 1]
        return REFERENCE_S / statistics.mean(near)
