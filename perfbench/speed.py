"""The machine-speed samples that the benchmark's timings are scaled by.

The shared box this benchmark runs on drifts in speed: the same check
takes anywhere from 0.7x to 1.4x its median over a minute, and the
speed changes within a single check.  So while a child sets up and
while it runs each check, it samples the machine's speed by timing a
short reference loop.  The loop imports
nothing from ``repro``, so no change to the checker can move it; like
the checker's search, it hashes tuples and looks them up in a dict too
large for the processor's private caches (a loop over a small dict
tracked the checker's speed about half as well).

Work in this process is *interrupted*: an interval timer takes a sample
every ``PERIOD_S`` inside it, and one more is taken right before and
right after.  On one check this halved the spread of the scaled time
compared with sampling only before and after.  Work in worker processes
(parallel checks: a sample inside would compete with the workers for
the processors and measure that contention) and traced work (a sample
inside would land in a span) is sampled only before and after, with
``END_SAMPLES`` back-to-back samples each side.  Back-to-back samples
find the table in cache and run about twice as fast as samples that
interrupt work, so the two kinds have their own nominal time.  Sampling
each processor in turn, since workers run on all of them, tracked
parallel checks worse than this.

A time ``t`` (less the time spent sampling) whose samples average ``s``
is reported as ``t * nominal / s``: seconds at the speed at which one
sample of its kind takes ``nominal``.
"""

from __future__ import annotations

import gc
import signal
from statistics import mean
from time import perf_counter
from typing import Callable, Tuple

#: Entries in the reference table (about 12 MB).
TABLE_SIZE = 50_000
#: Lookups one sample makes (a few ms).
LOOKUPS = 3_000
#: Seconds between samples inside interrupted work (about 5% overhead).
PERIOD_S = 0.1
#: Back-to-back samples before and after uninterrupted work.
END_SAMPLES = 50
#: Median sample times on the 2-core box this benchmark was written on,
#: inside work and back to back; scaled timings read as seconds at that
#: speed.
NOMINAL_S = 0.0046
BACK_TO_BACK_NOMINAL_S = 0.0023


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096 / 2 ** 20


class Speedometer:
    """Samples the machine's speed around and during a call.

    Build it before anything else in the process: ``build_s`` and ``mb``
    (the table's share of the resident set) are then exact, and the
    caller subtracts them from set-up time and peak memory.
    """

    def __init__(self) -> None:
        before = _rss_mb()
        started = perf_counter()
        self.table = {(i, i * 7 & 1023): [i] for i in range(TABLE_SIZE)}
        self.keys = list(self.table)
        self.build_s = perf_counter() - started
        self.mb = _rss_mb() - before
        #: Seconds spent sampling, over the object's life.
        self.spent = 0.0
        self._samples: list = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        started = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the checker's heap must not slow the loop
        try:
            table, keys = self.table, self.keys
            mix = j = 0
            loop_started = perf_counter()
            for _ in range(LOOKUPS):
                j = (j * 1103515245 + 12345) & 0x7FFFFFFF
                key = keys[j % TABLE_SIZE]
                mix += table[key][0]
                mix ^= hash((key, mix & 255))
            self._samples.append(perf_counter() - loop_started)
        finally:
            if enabled:
                gc.enable()
            self.spent += perf_counter() - started
            self._busy = False

    def _back_to_back(self) -> None:
        for _ in range(END_SAMPLES):
            self._sample()

    def run(self, fn: Callable, interrupt: bool) -> Tuple[object, float,
                                                          float]:
        """Call ``fn``; return its result, its seconds less the time
        spent sampling inside it, and the speed it ran at (1.0 is
        nominal).  Interrupt only work that runs in this process."""

        self._samples = []
        ends = self._sample if interrupt else self._back_to_back
        ends()
        spent = self.spent
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        started = perf_counter()
        try:
            result = fn()
        finally:
            seconds = perf_counter() - started - (self.spent - spent)
            signal.setitimer(signal.ITIMER_REAL, 0)
        ends()
        nominal = NOMINAL_S if interrupt else BACK_TO_BACK_NOMINAL_S
        return result, seconds, nominal / mean(self._samples)
