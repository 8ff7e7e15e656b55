"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of a core drifts by tens of percent over tens
of seconds, as other tenants load the caches and memory system; on a 2-vCPU
Xeon VM at 2.0 GHz one default guided run took anywhere from 0.71 s to
1.28 s within a few minutes.  Per-run medians cannot remove a drift that
lasts longer than a run.  So the benchmark times a fixed kernel after every
item, and scales the item's time by ``NOMINAL_S`` over the kernel's time
around it.  The kernel does what the program spends its time on -- small
float64 matmuls and elementwise ops behind Python closures, recorded on a
tape and walked backwards -- and it never calls attnguide, so a change to
the program cannot move it.  On the VM above, together with pinning the
run to one CPU, this cut the spread between repeated runs of
``guided_default`` from 15-30% to 3-4% of the median.

The tape lives in buffers allocated once, so the kernel adds a constant
(about 10 MB) to the process's peak resident memory instead of a transient
peak of its own that could hide the program's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a quiet 2-vCPU Intel Xeon VM at 2.0 GHz; scaled
# timings read as seconds on that machine.
NOMINAL_S = 0.020
TAPE_LENGTH = 150
PASSES = 2
WINDOW_S = 2.0

_rng = np.random.default_rng(0)
_X0 = _rng.normal(size=(8, 64, 16))
_W = _rng.normal(scale=0.25, size=(16, 16))


class Calibrator:
    """Scales a timed interval by the kernel's speed around it.

    The kernel is timed after every interval.  The scale uses the median of
    the kernel times of the last ``WINDOW_S`` seconds, but at least the two
    right before and after the interval: a long item is scaled by the
    kernel around it, a short one by several, so that one disturbed kernel
    run does not skew it.
    """

    def __init__(self):
        self._tape = np.zeros((TAPE_LENGTH,) + _X0.shape)
        self._tmp, self._grad, self._grad_next = (np.zeros(_X0.shape) for _ in range(3))
        self.kernel_seconds()  # first run pays for page faults on the buffers
        self.kernel_s, self._ended = [self.kernel_seconds()], [time.perf_counter()]

    def _pass(self):
        x, backward = _X0, []
        for y in self._tape:
            np.tanh(np.matmul(x, _W, out=self._tmp), out=y)
            if not np.all(np.isfinite(y)):
                raise ArithmeticError("calibration kernel went non-finite")
            backward.append(lambda g, out, y=y: np.matmul(
                np.multiply(g, 1.0 - y * y, out=self._tmp), _W.T, out=out))
            x = y
        g, g_next = self._grad, self._grad_next
        g.fill(1.0)
        for step in reversed(backward):
            step(g, g_next)
            g, g_next = g_next, g

    def kernel_seconds(self):
        """Time ``PASSES`` forward-and-backward passes of the fixed kernel."""
        start = time.perf_counter()
        for _ in range(PASSES):
            self._pass()
        return time.perf_counter() - start

    def scale(self, elapsed):
        self.kernel_s.append(self.kernel_seconds())
        self._ended.append(time.perf_counter())
        since = self._ended[-1] - WINDOW_S
        recent = [k for k, end in zip(self.kernel_s, self._ended) if end >= since]
        return elapsed * NOMINAL_S / statistics.median(recent if len(recent) > 1
                                                       else self.kernel_s[-2:])
