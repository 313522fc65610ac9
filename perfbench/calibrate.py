"""Fixed calibration kernel: how fast this CPU runs right now.

The shared host's speed drifts by up to 1.5x over tens of seconds (see
README.md), and no run length averages that away.  Each iteration times
this kernel in its own process right before and right after the workload
call, on the same CPU.  A run's time metrics are multiplied by
``REFERENCE_S / median kernel pass`` of the same run: seconds at the
machine's reference speed, so a run that got a slow machine is scaled back.

The kernel imports nothing from gl2local, so a change to the program never
moves it.  Its mix follows the workloads' hot paths: exact ``Fraction``
arithmetic (the counting filter), many ``np.roll`` calls on a small
integer array (``phi_counts``) and small-integer dictionary work (the
residue tables).
"""

import gc
import time
from fractions import Fraction

import numpy as np

# about the kernel's median pass on this host (Intel Xeon, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6); it only sets the scale of the scaled times
REFERENCE_S = 0.04


def kernel_s() -> float:
    """Seconds one pass of the fixed kernel takes now.  The collector is
    off, so that a pass after the workload does not also pay for scanning
    the objects the workload left behind."""
    gc.disable()
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i % 97, 3 * i + 1) * Fraction(7, i + 2)
    w = np.arange(2048, dtype=np.int64)
    acc = np.zeros(2048, dtype=np.int64)
    for k in range(1500):
        acc += np.roll(w, k)
    d: dict[int, int] = {}
    for i in range(30_000):
        d[i % 1000] = (d.get(i % 1000, 0) * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed
