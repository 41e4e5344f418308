"""Host-speed correction of the benchmark's timings.

On a shared host the same code runs at speeds up to about 1.9x apart, in
spells of a tenth of a second to minutes, as other tenants load the
physical cores under this machine's CPUs; each CPU has its own spells.  A
raw median then follows the share of a run spent in slow spells more than
it follows the program.

So every timed region is bracketed by a fixed calibration workload from
this file, run on the same CPU, and its time is scaled by
``REFERENCE_MS / calibration time``.  A scaled time reads as the time on
a host that runs the calibration in ``REFERENCE_MS`` milliseconds.  The
calibration mixes the kinds of work polyslip does (integer and float
loops, ``Fraction`` arithmetic, small-object churn and small numpy calls)
so that it slows as polyslip slows.  It never calls polyslip, so a change
to the program moves the scaled times and not the calibration.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

import numpy as np

#: Calibration time, in ms, that a scaled time refers to: about what
#: ``calibrate`` measures on a 2-vCPU Intel Xeon VM outside slow spells.
REFERENCE_MS = 0.25

_ARRAY = np.random.default_rng(0).normal(size=2000)


def _work() -> None:
    x = 0
    for i in range(600):
        x += i * i % 7
    a, s = Fraction(3, 7), Fraction(0)
    for i in range(1, 15):
        s += a * Fraction(i, i + 3) - Fraction(1, i)
    d = {}
    for i in range(100):
        d[i] = [i, (i, str(i))]
    sorted(d.items(), key=lambda kv: -kv[0])
    for _ in range(4):
        np.sort(_ARRAY)
    f = 0.0
    for i in range(500):
        f += math.sin(i * 0.001) * math.cos(i * 0.002)


def calibrate() -> float:
    """Milliseconds the calibration work takes now: the least of three tries."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def scale(t: float, before: float, after: float) -> float:
    """A time ``t`` measured between calibrations ``before`` and ``after``, scaled."""
    return t * 2.0 * REFERENCE_MS / (before + after)


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts, on one CPU.

    Slow spells differ between CPUs, so the calibration must run on the
    CPU the timed work runs on.  Returns that CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
