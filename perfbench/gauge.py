"""A gauge of the host's speed, taken on a process's own CPU while it works.

The measuring host's speed changes by up to 2.3x within seconds, from load
outside the virtual machine, and some phases last minutes.  A gauge started
around a piece of work lets its time be scaled to a fixed reference speed.
Only the standard library is imported here, so a gauge can start before the
program's own imports.
"""

import gc
import signal
import time
from fractions import Fraction


def clock():
    # CLOCK_MONOTONIC is system-wide, so a parent process can subtract its
    # own spawn time from a time reported by its child.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loop():
    # Fraction sums, 220-bit fixed-point products and tuple-keyed dict
    # updates, like the program's inner loops; no program code, no state
    # shared with the interrupted work
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 97 + 1, 7 * i + 3)
    x, y, s = (1 << 220) // 3, (2 << 220) // 7, 0
    for i in range(1, 600):
        s += ((x * y) >> 220) // i
    d = {}
    for i in range(1500):
        key = (i % 211, i % 7)
        d[key] = d.get(key, 0) + i


class HostGauge:
    """Interrupts the work every PERIOD_S to time a short fixed loop.

    `gauge_s` is the loop's mean time, at least one loop being run on exit;
    `clock` is the monotonic clock with the loops' time taken out, and
    `spent` the loops' total time.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.bursts = []
        self.spent = 0.0

    def clock(self):
        return clock() - self.spent

    def gauge_s(self):
        return sum(self.bursts) / len(self.bursts)

    def _burst(self, signum=None, frame=None):
        # a collection would scan the work's heap, so it is held off
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        _loop()
        took = clock() - t0
        if was_enabled:
            gc.enable()
        self.bursts.append(took)
        self.spent += took

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._burst()
