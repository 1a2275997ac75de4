"""Host-speed probe: a fixed reference kernel that rescales measured times.

The shared 2-vCPU host the benchmark was built on runs a core at one of two
speeds about 1.5x apart and switches between them for seconds to minutes at
a time.  Raw pass times therefore spread by 7-36% (interquartile range over
median) between runs of the same code.  The workers time each call between
two runs of this probe and rescale the call's time to the probe's nominal
speed,

    rescaled_s = measured_s * NOMINAL_S / probe_s,

which brought that spread to 3-12% in two sets of ten runs per workload on
the same host.  The kernel uses no shancode code, so a change to shancode
cannot move it; it mixes the kinds of work the workloads do: a Python
integer loop, small numpy vector-matrix products, Fraction arithmetic on
growing integers, and numpy passes over a cache-sized and a 4 MB array.

Importing this module imports numpy, so workers import it only after the
timed set-up.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# The probe's time on the fast setting of the host above (Intel Xeon, Python
# 3.11, numpy 2.4), so rescaled times read as seconds on that setting.
NOMINAL_S = 0.0025
REPEATS = 3

_MATRIX = np.full((4, 4), 0.25)
_SMALL = np.zeros(1 << 14)  # 128 KiB: stays in the core's own cache
_LARGE = np.zeros(1 << 19)  # 4 MiB: beyond the core's own cache


def _kernel() -> None:
    s = 0
    for i in range(10_000):
        s += i * i
    v = np.ones(4)
    for _ in range(500):
        v = v @ _MATRIX
    x = Fraction(1, 3)
    for _ in range(150):
        x = x * Fraction(2, 7) + Fraction(1, 5)
    for _ in range(30):
        np.add(_SMALL, 1.0, out=_SMALL)
    for _ in range(2):
        np.add(_LARGE, 1.0, out=_LARGE)


def probe() -> float:
    """Fastest of REPEATS timed runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def rescale(seconds: float, probe_s: float) -> float:
    """seconds measured while the probe took probe_s, at the probe's nominal speed."""
    return seconds * NOMINAL_S / probe_s
