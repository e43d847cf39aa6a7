"""Op times scaled to a reference machine speed.

The host this benchmark was defined on (2 vCPU Xeon, shared with other
tenants) swings in speed by up to 1.8x over seconds to minutes, and its two
vCPUs swing independently, which no run length averages away.  So the run
is pinned to one CPU and a fixed reference loop, independent of autohuber,
is timed on that CPU next to every op; each op's wall time is scaled by
REFERENCE_S / (reference loop time).  Scaled times read as seconds at the
speed where the loop takes REFERENCE_S, its median on that host.  On
wide_range the loop runs over 10^5-element arrays like the fits there: the
default size tracked those fits worse (5.5% against 3.7% spread of scaled
time over 3-second windows).
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.0025
# elements per reference pass; a workload whose fits run over larger arrays
# sets its own size, since the loop then meets the same cache level
DEFAULT_ELEMENTS = 50_000
_DATA = {}


def reference_loop_s(elements=DEFAULT_ELEMENTS):
    """Fastest of three timings of 10^5 elements of numpy work plus a Python loop."""
    if elements not in _DATA:
        _DATA[elements] = np.random.default_rng(0).standard_normal(elements)
    data = _DATA[elements]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(max(1, 100_000 // elements)):
            h = np.hypot(data, 1.5)
            float(np.sum(data / h))
        acc = 0
        for i in range(10_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def scaled_seconds(record):
    """An OpRecord's wall seconds at the reference speed."""
    return record.seconds * REFERENCE_S / record.ref_s
