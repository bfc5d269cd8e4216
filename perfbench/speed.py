"""Host speed, sampled throughout a run, to scale its times to a reference speed.

The shared host the benchmark is made for changes speed by up to a third over
minutes (other tenants' load), and every time a run measures moves with it:
a cold ``weingarten_table(5, 2)`` took 11.5 to 14.9 s in one process, while
its ratio to the loop below stayed within 33.5 to 36.7.  So a run times a
fixed integer loop between operations, every ``EVERY_S`` seconds (and just
before and after each set-up, for that set-up's time), and the end-to-end
times are multiplied by ``NOMINAL_S / mean loop time``: they read
as they would on a host where the loop takes ``NOMINAL_S`` (about this
host's usual speed).  The loop allocates no container objects, so neither the
program's heap nor its garbage collections slow it, and a slower program is
never scaled back.  The raw times are kept in the result files.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOP_N = 200_000
NOMINAL_S = 0.02  # the loop's usual time on the 2-vCPU Xeon VM the benchmark was tuned on
EVERY_S = 0.5


def _loop(n=LOOP_N):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class Speed:
    """Loop times sampled during one run."""

    def __init__(self, every_s=EVERY_S):
        self.every_s = every_s
        self.samples = []
        self._last = None

    def sample(self, count=1):
        for _ in range(count):
            start = perf_counter()
            _loop()
            end = perf_counter()
            self.samples.append(end - start)
        self._last = end

    def maybe_sample(self):
        """Sample when ``every_s`` seconds have passed since the last sample."""
        if self._last is None or perf_counter() - self._last >= self.every_s:
            self.sample()

    @property
    def scale(self):
        """Factor from measured seconds to seconds at the reference speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
