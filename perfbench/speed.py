"""Machine-speed sampler, to take the shared machine's speed out of times.

The machine the benchmark runs on is shared, and its speed changes by up to
1.7x within seconds: single-row scoring latency moved between 70 and 124 us
from one quarter second to the next. Most of such a change is the machine's,
not the program's, so times are scaled back to a nominal speed.

While the sampler is active, an interval timer interrupts the main thread
every SAMPLE_EVERY_S seconds and a signal handler times two fixed kernels
there, in CPU time (about 1.5 % of the thread's time): a Python loop and a
run of small numpy calls. Contention slows the two unequally, and kdsm's
work follows one or the other: over twelve 15-second windows on a 2-vCPU
Xeon VM, the spread (quartile distance over median) of single-row p50
latency was 0.36 raw, 0.17 scaled by the Python loop and 0.04 scaled by the
numpy calls, while the wall times of study and pipeline, mostly Python loops
and larger numpy calls, were steadier scaled by the Python loop. Neither
kernel tracks the BLAS pool well: its two threads stall whenever a
neighbour takes the other vCPU.

`factor(t0, t1)` (Python loop) and `call_factor(t0, t1)` (numpy calls) are
medians of nominal / measured kernel time over the samples taken in
[t0, t1]; a time measured over that interval is multiplied by one of them.
The nominal kernel times are the fastest seen on that VM, so scaled times
read as that machine unloaded.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.025
PY_N = 3_000
NOMINAL_PY_S = 1.5e-4
NP_N = 60
NOMINAL_NP_S = 1.65e-4
_ROW = np.ones((1, 17))
_WEIGHTS = np.ones((17, 64))


def _python_loop_s() -> float:
    c0 = time.thread_time()
    x = 0
    for i in range(PY_N):
        x += i * i
    return time.thread_time() - c0


def _numpy_calls_s() -> float:
    c0 = time.thread_time()
    for _ in range(NP_N):
        np.maximum(_ROW @ _WEIGHTS, 0.0).sum()
    return time.thread_time() - c0


def factor_now(n: int = 9) -> float:
    """Python-loop speed factor of this thread now: median over n runs."""
    return statistics.median(NOMINAL_PY_S / _python_loop_s() for _ in range(n))


class SpeedSampler:
    """Context manager that samples the main thread's speed; use it from the
    main thread only (signal handlers run there)."""

    def __enter__(self):
        self.times: list[float] = []
        self.py_factors: list[float] = []
        self.np_factors: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame) -> None:
        self.py_factors.append(NOMINAL_PY_S / _python_loop_s())
        self.np_factors.append(NOMINAL_NP_S / _numpy_calls_s())
        self.times.append(time.perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor of the Python loop over [t0, t1]."""
        return self._median(self.py_factors, t0, t1)

    def call_factor(self, t0: float, t1: float) -> float:
        """Speed factor of the small numpy calls over [t0, t1]."""
        return self._median(self.np_factors, t0, t1)

    def _median(self, factors: list[float], t0: float, t1: float) -> float:
        """Median over the samples in [t0, t1], or the nearest sample when
        the interval holds none."""
        if not self.times:
            raise RuntimeError("the speed sampler took no samples")
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return statistics.median(factors[lo:hi])
        i = min(lo, len(self.times) - 1)
        if i > 0 and abs(self.times[i - 1] - t0) < abs(self.times[i] - t0):
            i -= 1
        return factors[i]
