"""Host-speed calibration for the end-to-end timings.

On a shared 2-vCPU Xeon VM the host's speed changed by up to 2x over
minutes (the same code ran at 67 and at 132 training evaluations per
second twenty minutes apart, and every workload moved by the same
factor).  A fixed kernel, timed before and after every repetition in
the same process, measures that speed; end-to-end timings are reported
scaled to the speed at which the kernel takes ``REFERENCE_S``.  The
kernel uses only Python built-ins and numpy, so no change to the
program under test can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "calibrate"]

#: median kernel time at the reference speed (a 2-vCPU Intel Xeon VM,
#: 2.1 GHz, OpenBLAS on one thread, in its fast phase)
REFERENCE_S = 0.009

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64))
_X = _rng.standard_normal((128, 64))
_V = _rng.standard_normal(20_000)


def _kernel() -> float:
    """The search runtime's mix: Python object churn, small elementwise
    numpy ops and small GEMMs."""
    table: dict = {}
    acc = 0.0
    for i in range(9000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += len(str(i))
    for _ in range(180):
        y = _X @ _W
        np.tanh(y, out=y)
        acc += float(y.sum()) + float((_V * 0.5 + 1.0).max())
    return acc


def calibrate(samples: int = 9) -> float:
    """Median kernel time, seconds."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
