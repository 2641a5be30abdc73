"""Correction of measured times for the changing speed of a shared CPU.

The CPU this benchmark was defined on is shared with other machines' work.
Its speed has two modes, one about twice as fast as the other, and the share
of time spent in each changes from second to second and from minute to
minute; raw per-run medians of the same jobs moved by 25-30 % between runs.
A fixed piece of pure-Python work, ``probe_work``, is timed right before and
right after every measured interval.  It does what the program spends its
time on (``Fraction`` Gaussian elimination, tuple keys in a dict) and never
calls ``ehrhart``, so no change to the program changes its duration.

An interval that took ``wall`` seconds is reported as
``wall * REFERENCE_PROBE_S / probe``, where ``probe`` is the mean of the
probe before and the probe after it: the time the interval would have taken
on a CPU on which the probe takes ``REFERENCE_PROBE_S``, "seconds at the
reference speed".  A short interval that runs in another process, such as a
fresh interpreter, is bracketed by ``BURST`` probes on each side instead, and
the median of the burst is used: a single probe is too noisy for it (the
set-up samples' spread between runs was up to 0.33 with single probes).
``REFERENCE_PROBE_S`` is a constant: the probe's mean
duration in the faster phases of the 2-vCPU machine the benchmark was
defined on, where the mean over a run ranged from 1.6 to 2.5 ms.  Reported
times are close to wall times in those phases.

Three recordings of 150-200 s, one per workload, each one process running
the same jobs over and over, were cut into 20-second stretches.  Between
stretches, the spread of jobs_per_s went from 0.11-0.26 of the median in
wall time to 0.04-0.06 at the reference speed, that of the p50 latency from
0.15-0.27 to 0.04-0.07 and that of the p90 latency from 0.11-0.27 to
0.05-0.16.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.0016
BURST = 5


def probe_work() -> Fraction:
    """Solve a 5x5 Hilbert system exactly and fill a dict with tuple keys."""
    n = 5
    a = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    seen: dict[tuple[int, ...], int] = {}
    for k in range(1000):
        key = tuple((k * m) % 97 for m in (3, 5, 7, 11))
        seen[key] = seen.get(key, 0) + k
    return a[0][n] + len(seen)


def time_probe() -> float:
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Brackets measured intervals with probes; keeps every probe duration.

    Create it right before the first interval, and call ``scale`` right
    after each one, before anything else runs.
    """

    def __init__(self):
        self.durations = [time_probe()]

    def scale(self, wall: float) -> float:
        """Probe again; return ``wall`` at the reference speed."""
        self.durations.append(time_probe())
        return wall * REFERENCE_PROBE_S / ((self.durations[-2] + self.durations[-1]) / 2)


def timed_at_reference(measure):
    """Call ``measure`` between two bursts of probes.

    Return its result, its wall time and that time at the reference speed.
    """
    before = [time_probe() for _ in range(BURST)]
    t0 = time.perf_counter()
    result = measure()
    wall = time.perf_counter() - t0
    after = [time_probe() for _ in range(BURST)]
    return result, wall, wall * REFERENCE_PROBE_S / statistics.median(before + after)
