"""Machine-speed reference for timings taken on a shared host.

The host this benchmark was built on runs the same Python code up to twice
as slowly for tens of seconds at a time, as other tenants load it.
`reference_work` is a fixed piece of pure-Python work of the kind the
verifier does: small tuples, string keys and dict updates, and a sort. It
is timed next to every measured interval. A measured time is then reported
as `seconds * NOMINAL_S / reference time`, which is the time the interval
would take at the speed the reference routine runs at `NOMINAL_S`. No code
of the library runs in it, so a change to the library moves the measured
time and leaves the reference unchanged.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# Median reference time on a 2-vCPU x86 VM (Python 3.11.7) at its usual speed.
NOMINAL_S = 4.0e-4


def reference_work() -> int:
    d: dict = {}
    for i in range(800):
        k = (i % 97, str(i % 13))
        d[k] = d.get(k, 0) + i
    return len(sorted(d.items()))


def timed(repeats: int = 1) -> float:
    """Median seconds of `repeats` runs of the reference routine. The cyclic
    collector is paused meanwhile: the routine's allocations could otherwise
    start a collection of the measured program's heap, whose cost depends on
    that heap and not on the host's speed."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            reference_work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` expressed at the nominal speed of the reference routine."""
    return seconds * NOMINAL_S * 2 / (ref_before + ref_after)


class Sampler:
    """Times the reference routine every PERIOD seconds while a measured
    interval runs, from a SIGALRM handler, because host speed also changes
    within a long interval. `spent` is the time the samples took, which the
    caller subtracts from the interval."""

    PERIOD = 0.05

    def __init__(self, ref_before: float, active: bool = True):
        self.samples = [ref_before]
        self.spent = 0.0
        self.active = active

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(timed())
        self.spent += perf_counter() - t0

    def __enter__(self):
        if self.active:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        return False

    def scaled(self, seconds: float, ref_after: float) -> float:
        """`seconds`, less the sampling, at the nominal reference speed."""
        refs = self.samples + [ref_after]
        return (seconds - self.spent) * NOMINAL_S * len(refs) / sum(refs)
