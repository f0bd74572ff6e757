"""Machine-speed sampling, to take the host's speed changes out of timings.

On a shared machine the speed of the processor changes by tens of percent
over seconds to minutes, and a run's wall times change with it.  While a
pass runs, a timer signal every PERIOD seconds times a fixed pure-Python
kernel.  An operation's time is then scaled by REFERENCE_KERNEL_S over the
median kernel time sampled around it: the result is the time the operation
would take on a machine that runs the kernel in REFERENCE_KERNEL_S.  Time
spent in the sampler itself is subtracted from every measurement.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

PERIOD = 0.05
WINDOW = 0.5              # seconds of samples on each side of an operation
KERNEL_LOOPS = 4000
REFERENCE_KERNEL_S = 0.00033


def kernel(loops: int = KERNEL_LOOPS) -> int:
    s = 0
    for i in range(loops):
        s += i * i % 7
    return s


class SpeedSampler:
    """Context manager sampling the kernel time from a timer signal."""

    def __init__(self):
        self.times = array("d")       # sample start times
        self.kernel_s = array("d")    # kernel duration of each sample
        self.spent = 0.0              # total time spent sampling

    def _sample(self, signum, frame) -> None:
        a = perf_counter()
        kernel()
        b = perf_counter()
        self.times.append(a)
        self.kernel_s.append(b - a)
        self.spent += b - a

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_S over the median kernel time sampled within
        WINDOW of [start, end]; 1 when there is no sample."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo >= hi:
            return 1.0
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi])
