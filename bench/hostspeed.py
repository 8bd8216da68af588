"""Host speed sampling, so that timings stay comparable on a shared host.

On a host shared with other tenants the same CPU-bound Python call can take
1.6 times as long from one second to the next: a fixed Fraction loop was
measured at 13 ms and at 21 ms within one minute on a 2-vCPU Intel Xeon VM,
on either vCPU, with the process's own CPU time moving the same way.  Medians
over a 30-second run do not remove that, because the slow spells last from
seconds to minutes.

`Sampler` interrupts the process every PERIOD_S seconds and times a fixed
pure-Python Fraction loop, the same kind of work the library does.
`adjusted(t0, t1)` turns a wall-clock interval into reference seconds: the
interval, minus the sampler's own time in it, times the mean speed that the
samples taken in and around it measured against REFERENCE_CPU_S.  A child
process inherits the pinning to one CPU (see `pin_to_one_cpu`), so while it
runs, the samples measure the CPU it runs on.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# CPU time of `reference_loop` on that VM when no other tenant slowed it.
REFERENCE_CPU_S = 0.0015


def reference_loop() -> Fraction:
    s = Fraction(0)
    for i in range(1, 750):
        s += Fraction(1, i % 97 + 1)
    return s


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the samples
    time the CPU the measured work runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Sampler:
    """Samples host speed from a SIGALRM timer while in a `with` block.

    `on_sample(seconds)` is called with the wall time each sample took, so a
    caller can keep it out of what it measures."""

    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, cpu)
        self.on_sample = on_sample
        self._previous = None

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
        self.samples.append((t0, wall, cpu))
        if self.on_sample is not None:
            self.on_sample(wall)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjusted(self, t0: float, t1: float) -> float:
        """Reference seconds of work done between perf_counter times t0 and t1."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        own = sum(wall for _, wall, _ in inside)
        around = [s for s in self.samples if t0 - PERIOD_S <= s[0] < t1 + PERIOD_S]
        if not around:
            around = [min(self.samples, key=lambda s: abs(s[0] - t0))]
        speed = statistics.fmean(REFERENCE_CPU_S / cpu for _, _, cpu in around)
        return (t1 - t0 - own) * speed
