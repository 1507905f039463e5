"""The machine's speed, sampled while the benchmark times ordsplit.

On a shared host the same pass can run half again as slow in one minute as
in the next: neighbours compete for the cores' caches and memory bandwidth,
and no CPU time is stolen, so neither wall time nor CPU time shows it.  A
profiling timer signal runs a fixed pure-Python kernel (Fraction arithmetic,
tuples and a dict, the stuff ordsplit's groups are made of) every INTERVAL_S
of CPU time; how long it takes is the machine's speed at that moment.

A timed interval is reported in reference seconds: its own time, with the
time spent in the kernel taken out, scaled by REFERENCE_S over the mean
kernel time sampled around it (the last sample before it, those inside it
and the first after it).  That is the time the work would take on a machine
where the kernel takes REFERENCE_S, about its uncontended time on the 2-vCPU
VM the baseline in BASELINE.md comes from.  Work that gets slower moves the
interval and not the kernel, so it still shows in full.
"""

from __future__ import annotations

import gc
import signal
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.01
REFERENCE_S = 300e-6


def kernel() -> int:
    seen = {}
    a = (Fraction(1, 3), 2)
    for i in range(40):
        a = (a[0] * 2 + Fraction(i, 7), a[1] + i)
        seen[a] = i in seen
        a = (a[0] / 3, a[1] % 11)
    return len(seen)


@dataclass(frozen=True)
class Mark:
    at: float  # perf_counter
    spent: float  # seconds spent in the kernel so far
    samples: int  # kernel samples taken so far


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []  # seconds per kernel run
        self.spent = 0.0
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        # The program's garbage is not the kernel's to collect.
        gc_was_on = gc.isenabled()
        gc.disable()
        started = perf_counter()
        kernel()
        took = perf_counter() - started
        if gc_was_on:
            gc.enable()
        self.samples.append(took)
        self.spent += perf_counter() - started
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> Mark:
        # A sample taken between the reads would be in the clock reading
        # and not in spent; read again then.
        while True:
            n, spent = len(self.samples), self.spent
            at = perf_counter()
            if len(self.samples) == n:
                return Mark(at, spent, n)

    @staticmethod
    def own_seconds(a: Mark, b: Mark) -> float:
        """Seconds from a to b with the kernel's time taken out."""
        return (b.at - a.at) - (b.spent - a.spent)

    def reference_seconds(self, a: Mark, b: Mark) -> float:
        """own_seconds(a, b) at the reference speed; call after stop()."""
        around = self.samples[max(a.samples - 1, 0) : b.samples + 1]
        return self.own_seconds(a, b) * REFERENCE_S / fmean(around)
