"""Host-speed calibration for the benchmark.

The host this benchmark runs on changes speed in stretches of a fraction of
a second to several seconds.  Every timed block is therefore also expressed
in calibration units: the block's time divided by the cost of a fixed
kernel measured around and during the block.

The kernel is Python driving numpy over a few hundred points: all-pairs
distances, a threshold mask and fancy indexing, the mix of the simulator's
pair search on large realizations.  Workloads whose time goes to the
interpreter over small arrays (mc_tiny's replications, the nested adaptive
quadrature of moments_d2) add ``small_array_passes`` of bisection
quadrature on 15-node arrays.  Over six minutes of a 2-vCPU KVM Xeon host
swinging 1.8x in speed, the log of 2-second medians of the ops' times
against that of the kernel had slope 0.88 for mc_large replications on the
all-pairs kernel alone, but 1.28 for mc_tiny replications and 1.32 for d=2
overlap integrals; with three small-array passes added those became 1.05
and 1.07, and the ratios' IQR fell by a third, while mc_large's slope fell to 0.71.
Neither part alone follows both kinds of op.

The kernel is timed in thread CPU time.  Where the timed work runs wholly in
the main thread (``in_thread``), blocks are timed on that clock too and the
samples inside a block are taken by the main thread itself, from a SIGALRM
handler, so that no second thread competes with the work for the GIL and
the kernels' own time is left out of the block's.  Otherwise (pool workers
do the work and the main thread mostly waits) blocks are timed in wall time
and a daemon thread takes the inner samples.  This module must never import
rcmlab: no change to the program may speed the kernel up.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import threading
import time

import numpy as np

KERNEL_POINTS = 300  # 44850 pairs; ~1.5-3 ms a kernel on a 2 GHz Xeon
QUAD_NODES, QUAD_WEIGHTS = np.polynomial.legendre.leggauss(15)
QUAD_STEPS = 60  # bisections of a small-array pass; ~1 ms on a 2 GHz Xeon
SAMPLE_INTERVAL_S = 0.25
SMOOTH = 2  # a knot's cost is the median of the knots within SMOOTH of it


class Calibrator:
    """Calibration samples (start, end, kernel cost) on the blocks' clock.

    ``point()`` samples at block boundaries; while ``start()``ed, one sample
    is added every SAMPLE_INTERVAL_S so that long blocks are calibrated
    throughout, not only at their ends.  A sample taken by another thread
    does not interrupt the block and is stamped with start == end.
    """

    def __init__(self, in_thread: bool = False, small_array_passes: int = 0):
        rng = np.random.default_rng(12345)
        self._points = rng.random((KERNEL_POINTS, 2))
        self._i, self._j = np.triu_indices(KERNEL_POINTS, k=1)
        self.small_array_passes = small_array_passes
        self.in_thread = in_thread
        self.clock = time.thread_time if in_thread else time.perf_counter
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._handler = None
        self._busy = False  # a sample is being taken; the alarm skips its turn
        self.samples: list[tuple[float, float, float]] = []

    def kernel(self) -> float:
        """Thread CPU seconds of one fixed unit of Python/numpy work."""
        c0 = time.thread_time()
        pts, i, j = self._points, self._i, self._j
        dist = np.linalg.norm(pts[i] - pts[j], axis=1)
        near = dist <= 0.1
        kept = i[near].size + j[near].size
        area = sum(self._small_array_pass() for _ in range(self.small_array_passes))
        cost = time.thread_time() - c0
        if kept == 0 or not math.isfinite(area):  # consumes the results; never true
            raise RuntimeError("calibration kernel lost its result")
        return cost

    @staticmethod
    def _small_array_pass() -> float:
        """Adaptive bisection quadrature of a smooth integrand over [0, 1], 15 nodes at a time."""

        def rule(lo: float, hi: float) -> float:
            half = 0.5 * (hi - lo)
            x = (lo + half) + half * QUAD_NODES
            return half * float(np.dot(QUAD_WEIGHTS, np.exp(-x * x) * np.sqrt(1.0 + x)))

        total = rule(0.0, 1.0)
        heap = [(-total, 0, 0.0, 1.0, total)]
        for n in range(QUAD_STEPS):
            _, _, a, b, v = heapq.heappop(heap)
            total -= v
            mid = 0.5 * (a + b)
            for k, (lo, hi) in enumerate(((a, mid), (mid, b))):
                v = rule(lo, hi)
                total += v
                heapq.heappush(heap, (-abs(v), 2 * n + k + 1, lo, hi, v))
        return total

    def _sample(self, kernels: int) -> float:
        self._busy = True
        try:
            t0 = self.clock()
            cost = statistics.median(self.kernel() for _ in range(kernels))
            t1 = self.clock()
        finally:
            self._busy = False
        if not self.in_thread:
            t0 = t1 = 0.5 * (t0 + t1)
        self.samples.append((t0, t1, cost))
        return cost

    def point(self) -> float:
        """Median cost of three kernels."""
        return self._sample(3)

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._sample(1)

    def _loop(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample(1)

    def start(self):
        if self.in_thread:
            if self._handler is None:
                self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        elif self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop, name="calibration", daemon=True)
            self._thread.start()

    def stop(self):
        if self._handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
            self._handler = None
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def units(self, t0: float, t1: float, before: float, after: float) -> float:
        """Calibration units of the interval [t0, t1] on ``clock``.

        The kernel cost is known at t0 (``before``), at t1 (``after``) and at
        every sample taken inside; each knot's cost is the median over the
        knots within SMOOTH of it, so that one disturbed sample moves little.
        Each piece between two knots counts its duration, less the knots'
        own, divided by the mean cost at its ends.  Without inner samples
        this is (t1 - t0) / mean(before, after).
        """
        inner = sorted(s for s in self.samples if t0 <= s[0] and s[1] <= t1)
        knots = [(t0, t0, before), *inner, (t1, t1, after)]
        costs = [
            statistics.median(c for _, _, c in knots[max(k - SMOOTH, 0):k + SMOOTH + 1])
            for k in range(len(knots))
        ]
        return sum(
            (b[0] - a[1]) / (0.5 * (ca + cb))
            for a, b, ca, cb in zip(knots, knots[1:], costs, costs[1:])
        )


def summary(calibrators) -> dict:
    """Median and IQR of every kernel cost the calibrators sampled."""
    costs = [c for cal in calibrators for _, _, c in cal.samples]
    if len(costs) < 2:
        return {"samples": len(costs)}
    q1, med, q3 = statistics.quantiles(costs, n=4)
    return {"samples": len(costs), "median_ms": med * 1e3, "iqr_ms": (q3 - q1) * 1e3}
