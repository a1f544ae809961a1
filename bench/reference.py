"""A clock that runs at the machine's current speed.

On a shared host the speed of one core changes from one tenth of a second
to the next (other tenants load the same physical core), and the mix of
fast and slow periods drifts over minutes. A pass timed at one moment
cannot be compared with one timed at another, even on the same machine.

:class:`SpeedProbe` therefore runs a small fixed kernel every
``PERIOD`` seconds, from a timer signal, while the workload runs, and
records how long each run of the kernel took. The runner divides each
stretch of an operation's wall time by the duration of the kernel runs
around it, so an operation is measured in kernel runs, and both slow
down together. The kernel's own time is taken out of the operation's.

The kernel does nothing with the program under test: it repeats a
stencil update on a small numpy array, the kind of work a Gauss-Seidel
sweep does. Of the kernels tried (this stencil, a sparse direct solve, a
broadcast minimum over a dense block, a plain Python loop, a pass over a
large array), it followed the slowdowns of the workloads' operations most
closely: on a 2-vCPU Xeon virtual machine, the spread (interquartile range
over median) of one operation's repeated timings fell from 0.16-0.45 in
seconds to 0.04-0.14 in kernel runs. Its inputs are fixed, so its work
never changes; it takes about 0.6 ms there.
"""

import bisect
import signal
import time

import numpy as np

PERIOD = 0.05  # seconds of wall time between two kernel runs

_RNG = np.random.default_rng(0)
_FIELD = _RNG.random((33, 33)) + 0.5
_WEIGHT = _RNG.random((31, 31))


def kernel():
    """The fixed reference work: a few nonlinear stencil updates."""
    u = _FIELD.copy()
    for _ in range(10):
        ex = 0.5 * (u[1:-1, 2:] - u[1:-1, :-2])
        ey = 0.5 * (u[2:, 1:-1] - u[:-2, 1:-1])
        m = np.maximum(np.hypot(ex, ey), 1e-3)
        ap = m**0.5
        aq = _WEIGHT * m
        u[1:-1, 1:-1] = 0.9 * u[1:-1, 1:-1] + 0.1 * np.where(ap > aq, ap, aq) / (1.0 + m)
    return float(u[1, 1])


class SpeedProbe:
    """Runs :func:`kernel` every ``PERIOD`` seconds while it is active.

    ``starts`` and ``durations`` hold the clock reading at the start of
    each kernel run and how long it took (``time.perf_counter`` seconds).
    """

    def __init__(self, period=PERIOD):
        self.period = period
        self.starts = []
        self.durations = []
        self._previous = None
        self._busy = False

    def sample(self, *_signal_args):
        if self._busy:  # a timer signal that arrives during a kernel run
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def measure(self, start, end):
        """Wall time in ``[start, end]`` without kernel runs, and the same
        time in kernel runs: each stretch between two kernel runs is
        divided by the mean duration of those two runs."""
        wall = 0.0
        units = 0.0
        first = bisect.bisect_right(self.starts, start) - 1
        for k in range(max(first, 0), len(self.starts) - 1):
            lo = max(start, self.starts[k] + self.durations[k])
            hi = min(end, self.starts[k + 1])
            if hi > lo:
                wall += hi - lo
                units += (hi - lo) / (0.5 * (self.durations[k] + self.durations[k + 1]))
            if self.starts[k + 1] >= end:
                break
        return wall, units
