"""Host times: CPU time of the client thread, scaled to a reference host speed.

Every host time the benchmark reports is read from the thread CPU clock
(``time.thread_time_ns``), not from a wall clock.  The client is one thread
that does no I/O, so its CPU time is its wall time less the time the
operating system or the hypervisor gave to someone else; on a shared host
those gaps land on random ops and would set the latency tail.

The host this benchmark was built on is a shared VM whose speed swings by
about 1.5x and stays in one state for minutes, so run length cannot average
the swings out.  A run therefore times a fixed pure-Python calibration loop
every ``PROBE_EVERY_NS`` between ops, and multiplies every host time by
``REF_PROBE_NS`` over the median of the nearest ``SMOOTH`` calibration times.
A figure then reads as on a host where the loop takes ``REF_PROBE_NS``.  The
loop shares no code with the simulator, so a change to the simulator moves
the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import thread_time_ns

REF_PROBE_NS = 2_000_000
PROBE_EVERY_NS = 200_000_000
SMOOTH = 5


def calibration_loop() -> int:
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def probe_ns() -> int:
    t0 = thread_time_ns()
    calibration_loop()
    return thread_time_ns() - t0


class HostClock:
    """Calibration samples taken during one timed loop."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.durations: list = []
        self._due = 0

    def tick(self) -> None:
        """Take a calibration sample if one is due."""
        now = thread_time_ns()
        if now >= self._due:
            d = probe_ns()
            self.starts.append(now)
            self.durations.append(d)
            self.ends.append(now + d)
            self._due = now + d + PROBE_EVERY_NS

    def factors(self) -> list:
        """Per sample: reference time over the smoothed calibration time."""
        d, h = self.durations, SMOOTH // 2
        return [REF_PROBE_NS / statistics.median(d[max(0, k - h):k + h + 1]) for k in range(len(d))]

    def scaler(self):
        """A function mapping (start_ns, duration_ns) of an op to scaled ns."""
        factors, starts = self.factors(), self.starts

        def scaled(start_ns: int, duration_ns: int) -> float:
            return duration_ns * factors[max(0, bisect_right(starts, start_ns) - 1)]

        return scaled

    def scaled_span(self, end_ns: int) -> float:
        """Scaled time from the first sample to ``end_ns``, samples excluded."""
        factors = self.factors()
        total = 0.0
        for k, f in enumerate(factors):
            stop = self.starts[k + 1] if k + 1 < len(factors) else end_ns
            total += f * (stop - self.ends[k])
        return total

    def factor(self) -> float:
        """One factor for the whole loop: reference over median sample."""
        return REF_PROBE_NS / statistics.median(self.durations)
