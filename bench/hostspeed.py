"""Samples how fast the CPU under the jobs runs, while they run.

The benchmark runs on a few cores of a shared host.  On a 2-vCPU Xeon VM
(KVM) the speed one CPU gives a process drifts by 30-80 % within seconds
and between minutes, with no steal time and CPU time equal to wall time:
the same evolve job took 3.4 s in one minute and 5.6 s in the next.  The
drift is the CPU's own; a kernel timed on the other CPU at the same
moment did not follow it (correlation 0.1).  It moves the median of a
40 s run as much as a large change to the program would, and more jobs
per run do not average it out.

So a thread of the harness, on the one CPU that the jobs run on, times a
short fixed kernel every PERIOD_S while the jobs run, and the harness
reports a job's times in seconds at a reference speed:

    reference seconds = measured seconds * (REFERENCE_S / k) ** EXPONENT

where k is the median kernel time over the kernel runs that started
inside the timed interval.  Job times follow the kernel time with a
correlation of about 0.9 within a run, but less than in proportion: the
slope of log job time on log kernel time was 0.5-0.7 within runs of each
workload, and the spread of run medians, over 20 runs of the three
workloads, was smallest near 0.7 (at most 0.074 of the median, against
0.24 measured and 0.15 with EXPONENT = 1).  The kernel is benchmark code,
not tomoprop code, with fixed inputs and a working set of about 0.2 MB,
so a change to the program moves the reported times as it moves the wall
times; only the host's drift is divided out.  Its mix follows the
program's hot paths: cubic-spline sampling and float formatting.  The
sampling takes about 2-3 % of the jobs' CPU, the same share on every run.
"""

import statistics
import threading
import time

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

# Kernel time on the reference host, a quiet 2-vCPU Xeon VM (Emerald
# Rapids, KVM).  It only sets the scale of reported times.
REFERENCE_S = 1.0e-3
EXPONENT = 0.7
PERIOD_S = 0.05

_rng = np.random.default_rng(20110402)
_SPLINE = spline_filter(_rng.standard_normal((48, 48)), order=3)
_POINTS = _rng.uniform(0.0, 47.0, size=(2, 6000))
_VALUES = _rng.standard_normal(600).tolist()


def to_reference(seconds, kernel):
    """Seconds measured while the kernel took `kernel` s, at the reference speed."""
    return seconds * (REFERENCE_S / kernel) ** EXPONENT


def kernel_s():
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    map_coordinates(_SPLINE, _POINTS, order=3, mode="constant", prefilter=False)
    "\n".join("%d,%.17g" % (i, v) for i, v in enumerate(_VALUES))
    return time.perf_counter() - t0


class Sampler(threading.Thread):
    """Runs the kernel every PERIOD_S until halted, keeping (start, seconds).

    Start times are on the CLOCK_MONOTONIC scale that time.perf_counter and
    time.monotonic share, so other processes' readings can be compared.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self.halt = threading.Event()

    def run(self):
        while not self.halt.wait(PERIOD_S):
            start = time.perf_counter()
            self.samples.append((start, kernel_s()))

    def median_s(self, lo, hi):
        """Median time of the kernel runs started in [lo, hi]; None if none did."""
        times = [s for t, s in self.samples if lo <= t <= hi]
        return statistics.median(times) if times else None
