"""A reference clock that takes the host's speed out of the timings.

The benchmark runs on shared virtual machines whose speed drifts by
25-40 % for stretches of seconds to minutes, as long as a whole run.  A
plain wall time taken there says as much about the neighbours as about
hopfkit, and no statistic inside one run can remove a drift that covers
all of it.

So the host's speed is sampled all through the run with a fixed
reference kernel, an exact Gauss-Jordan elimination over Python
``Fraction``s.  The kernel is written here and shares no code with
hopfkit, so a change to hopfkit cannot change it.  ``Clock.time`` runs
the kernel three times after each timed call, and once every ``TICK_S``
seconds inside it, from a ``SIGALRM`` handler; the tick time is taken
out of the call's wall time.  A wall time ``w`` whose kernel samples
(those inside it and those just before and after it) have the harmonic
mean ``k`` is reported as

    w * REFERENCE_S / k

that is, in seconds on a host that runs the kernel in ``REFERENCE_S``
seconds.  The samples are evenly spaced in time and a sample ``k_i``
means the host did ``1 / k_i`` kernels' worth of work per second then,
so the harmonic mean is the one that matches the work done in ``w``; it
also lets a sample stretched by an interruption count for little.  ``REFERENCE_S`` is a constant, never re-measured, so scaled
times of two commits compare as they are.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the median of the kernel's per-run medians over the runs made on the
# shared 2-core x86-64 virtual machine (Python 3.11) on which the
# benchmark was defined; they ranged from 4.7 to 8.9 ms
REFERENCE_S = 0.006
# interval of the kernel samples taken inside a timed call
TICK_S = 0.4

_N = 12
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 5 * (i == j), 1 + (i + j) % 4) for j in range(_N)]
           for i in range(_N)]


def kernel():
    """Reduce the fixed non-singular matrix ``_MATRIX`` to the identity."""
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        piv = next(r for r in range(c, _N) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(_N):
            if r != c and m[r][c]:
                fac = m[r][c]
                m[r] = [x - fac * y for x, y in zip(m[r], m[c])]
    return m


def timed_kernel():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def probe(reps=3):
    """Median wall time of ``reps`` runs of the kernel."""
    return statistics.median(timed_kernel() for _ in range(reps))


class Clock:
    """Times calls and scales them to the reference host speed."""

    def __init__(self, tick_s=TICK_S):
        self.tick_s = tick_s
        self.last = probe()
        self.probes = [self.last]

    def time(self, fn, *args):
        """Call ``fn(*args)``; returns its result, its scaled time and its
        wall time less the ticks taken inside it."""
        ticks, busy = [], [False]

        def tick(_signum, _frame):
            if not busy[0]:  # a tick that comes during a tick is dropped
                busy[0] = True
                ticks.append(timed_kernel())
                busy[0] = False

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(ticks)
        now = probe()
        speed = statistics.harmonic_mean([self.last, *ticks, now])
        self.last = now
        self.probes += [*ticks, now]
        return result, wall * REFERENCE_S / speed, wall
