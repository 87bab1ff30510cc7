"""Machine-speed scaling of timed runs.

The benchmark runs on shared virtual machines on which a fixed Python
loop runs up to 1.7 times slower in some seconds than in others: load
elsewhere on the host, invisible to the guest (process CPU time drifts
with wall time).  Such drift moves every operation's time alike.  So a
timed run interleaves a fixed reference chunk -- pure-Python Fraction
arithmetic and dict updates, the kind of interpreter work the library
does -- with its operations, and scales every operation's wall time by
NOMINAL_S over the mean chunk time of the run.  Reported times are then
seconds on a machine on which the chunk takes NOMINAL_S.  The chunk uses
nothing from the library, so a change to the library moves them in full.

The mean, not the median: the machine flips between a fast and a slow
state, so chunk times have two modes, and only the mean follows the share
of the run spent in each.  Its highest and lowest tenth are left out.
Scaling each operation by the chunks timed next to it instead does not
help: the jitter from one tenth of a second to the next is as large in
the chunk as in the operations, and the medians over a run absorb it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0025  # the chunk in the fast state of the 2-vCPU Xeon VM of the baseline
EVERY_S = 0.1  # a timed run measures a chunk between operations at least this often


def chunk() -> float:
    """Seconds for one reference chunk.

    The cyclic collector is paused meanwhile, so that the size of the
    library's heap does not change what the chunk costs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            x = Fraction(i % 17 - 8, i % 7 + 1)
            acc += x * Fraction(1, i % 50 + 1)
            seen[x] = seen.get(x, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_now(seconds: float, chunks: int = 5) -> float:
    """`seconds` at nominal speed, judged by chunks measured right now."""
    return seconds * NOMINAL_S / statistics.median(chunk() for _ in range(chunks))


class Clock:
    """Reference chunks taken during a run, and the scaling they give."""

    def __init__(self):
        self.samples = []  # (start, chunk seconds)

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), chunk()))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """What turns this run's wall times into times at nominal speed."""
        chunks = sorted(s for _, s in self.samples)
        trim = len(chunks) // 10
        return NOMINAL_S / statistics.fmean(chunks[trim : len(chunks) - trim])
