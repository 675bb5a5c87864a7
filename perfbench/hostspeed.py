"""Host-speed probe, and timings scaled to a reference host speed.

The benchmark runs on a few cores of a host shared with other tenants. How
fast that host runs the interpreter changes by 20-40% over seconds to
minutes, in phases that outlast a whole run, so the median of a run follows
the phase it fell in more than the program. A probe, a fixed loop of
pure-Python arithmetic that never touches the program, is timed between
the benchmark's steps. Every time the benchmark reports is multiplied by

    PROBE_REF_S / (median probe time within PROBE_SPAN_S of that measurement)

which gives the time the measurement would have taken on a host where the
probe takes PROBE_REF_S. A change to the program cannot move the probe, so
it cannot move the scale either.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_LOOP = 5_000      # iterations of the probe
PROBE_REPEATS = 3       # probe timings per sample
PROBE_EVERY_S = 0.1     # least time between two samples
PROBE_SPAN_S = 1.0      # probe timings used on each side of a measurement
PROBE_REF_S = 0.5e-3    # probe time of the reference host speed


def _probe() -> int:
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return s


class HostSpeed:
    """Probe timings over a run, and the scale they give at any moment."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the probe, unless the last sample is under PROBE_EVERY_S old."""
        if not force and self.at and time.perf_counter() - self.at[-1] < PROBE_EVERY_S:
            return
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _probe()
            self.took.append(time.perf_counter() - t0)
            self.at.append(t0)

    def scale(self, t0: float, t1: float) -> float:
        """Factor for a measurement made from t0 to t1."""
        lo = bisect.bisect_left(self.at, t0 - PROBE_SPAN_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_SPAN_S)
        if lo == hi:
            raise ValueError(f"no probe timing within {PROBE_SPAN_S} s of [{t0}, {t1}]")
        return PROBE_REF_S / statistics.median(self.took[lo:hi])


class Timings:
    """Durations in groups, each stamped with the interval it was measured in."""

    def __init__(self):
        self.raw: list[float] = []
        self._groups: list[tuple] = []  # (t0, t1, first index, end index)

    def add(self, values, t0: float, t1: float) -> None:
        start = len(self.raw)
        self.raw.extend(values)
        self._groups.append((t0, t1, start, len(self.raw)))

    def __len__(self) -> int:
        return len(self.raw)

    def scaled(self, speed: HostSpeed) -> list[float]:
        out = []
        for t0, t1, i, j in self._groups:
            s = speed.scale(t0, t1)
            out += [v * s for v in self.raw[i:j]]
        return out
