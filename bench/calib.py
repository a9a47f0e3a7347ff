"""Machine-speed calibration for the benchmark's timings."""
from __future__ import annotations

import time

import numpy as np

#: time of `calibrate()` at the reference speed (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4)
CAL_REF_S = 0.015

#: start-up reference: a fresh interpreter that imports numpy and some of its
#: subpackages, and its time at the reference speed.  Start-up is file and
#: kernel work that `calibrate()` does not track; this tracked it, cutting the
#: spread of set-up medians from about 0.2 to 0.04 in a side-by-side trial.
STARTUP_REF_CODE = "import numpy, numpy.random, numpy.linalg, numpy.fft, numpy.polynomial, numpy.ma\n"
STARTUP_REF_S = 0.185


def calibrate() -> float:
    """Time a fixed kernel that shares no code with hjhomog.

    On a shared host the CPU speed a process gets swings by up to 2x over
    seconds.  Every iteration time t is scaled by CAL_REF_S / (this kernel's
    time measured right before and after t), which gives t at the reference
    speed; the raw times go to the run record.  The kernel is a min-max
    recursion on short arrays, numpy-call-bound like the solvers' step loops:
    of the kernels tried it tracked both mc1d-saddle and field2d-saddle best.
    """
    cost = np.linspace(0.0, 1.0, 4 * 300).reshape(4, 300)
    t0 = time.perf_counter()
    for _ in range(3):
        v = np.zeros(300)
        for step in range(1, 120):
            n = 300 - 2 * step
            cand = np.empty((4, n))
            for j in range(4):
                cand[j] = 0.25 * cost[j, :n] + 0.75 * v[1:n + 1] + 0.25 * v[2:n + 2]
            v = np.full(300, np.nan)
            v[:n] = cand.reshape(2, 2, n).max(axis=0).min(axis=0)
    return time.perf_counter() - t0
