"""A fixed calibration kernel that uses numpy and scipy but not sel.

The benchmark runs on a shared host whose speed drifts by a factor of 1.5
or more from one minute to the next, and at times within a second.  The
drift shows alike in sel's cases, in a fresh interpreter's imports and in
this kernel.  So the benchmark times the kernel while it runs sel, and
reports a case's time in reference seconds: its wall time times
``NOMINAL_S`` over the median time of the kernel around and during the
case.  A change to sel does not change the kernel, so the scaling cancels
the host's drift and nothing of sel's own speed.

The kernel does what sel's inner solves do most: sparse tridiagonal
products and vector updates at n = 4096 (the CG inner loop), with a little
interpreted Python and small dense products.  Over two and a half minutes
of interleaved timings on the reference machine, its sparse part tracked
the time of sel's CG solves, eigenpairs and a dense LU best (correlation
0.8 to 0.9), and dividing by it cut the spread of their log times by a
quarter (LU) to a half (CG, eigenpair).

The host can change speed within a long case, so a kernel timed only
between cases calibrates a case of 10 s poorly.  ``Kernel.start_timer``
therefore also times the kernel from a timer signal every ``TICK_S``
seconds, in the middle of sel's work; the kernel's own time is then taken
out of the case's wall time (``stolen``).  Python runs the handler between
bytecodes, so a long call into a compiled library delays a tick but is
never interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

N = 4096
MATVECS = 240
DENSE = 8
PY_LOOP = 10000
# Kernel time on the reference machine when it was quiet (2-vCPU Xeon VM,
# OpenBLAS, one thread).  A reference second is a wall second at that speed.
NOMINAL_S = 0.006
TICK_S = 0.2  # timer period; the kernel then takes 2 to 4% of the wall time
PAD_S = 0.5  # kernel times this close before or after a case also calibrate it
GAP_SAMPLES = 3


def reference_s(wall_s: float, kernel_s: float) -> float:
    """Wall seconds measured while the kernel took kernel_s, in reference seconds."""
    return wall_s * NOMINAL_S / kernel_s


class Kernel:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        self._np = np
        self._a = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N), format="csr")
        self._x0 = np.linspace(1.0, 2.0, N)
        self._d = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        self._busy = False
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def sample(self) -> float:
        """Time the kernel once; returns and records its time."""
        if self._busy:  # a tick that arrives during a sample is dropped
            return 0.0
        self._busy = True
        np = self._np
        t0 = time.perf_counter()
        x = self._x0.copy()
        for _ in range(MATVECS):
            y = self._a @ x
            x = y / np.linalg.norm(y)
        d = self._d
        for _ in range(DENSE):
            d = d @ self._d / 64.0
        acc = 0
        for k in range(PY_LOOP):
            acc += k % 7
        elapsed = time.perf_counter() - t0
        self.samples.append((t0, elapsed))
        self._busy = False
        return elapsed

    def gap(self) -> float:
        """Time the kernel GAP_SAMPLES times in a row; returns the median."""
        return statistics.median(self.sample() for _ in range(GAP_SAMPLES))

    def start_timer(self, period_s: float = TICK_S) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stolen(self, start: float, end: float) -> float:
        """Seconds the kernel ran between start and end."""
        return sum(s for t, s in self.samples if start <= t < end)

    def around(self, start: float, end: float) -> float:
        """Median kernel time from PAD_S before start to PAD_S after end."""
        near = [s for t, s in self.samples if start - PAD_S <= t <= end + PAD_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(near)

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds over the whole run."""
        return NOMINAL_S / statistics.median(s for _, s in self.samples)
