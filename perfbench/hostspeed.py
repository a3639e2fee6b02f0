"""A fixed gauge of the host's speed, timed between commands to scale run times.

On a shared host the speed one process gets drifts with the other tenants'
load: on a 2-vCPU Intel Xeon VM a fixed pure-Python loop varies by +-20 % over
minutes and up to 2x within one, and the CPU time of such a loop equals its
wall time, so the slowdown is lost speed, not waiting for a CPU.  Within a
run, medians over repeated executions remove the fast part of that noise but
not the drift from one run to the next.

The gauge is a fixed mix of the kinds of work manlab does: a pure-Python loop,
small complex numpy operations and a LAPACK SVD.  It imports nothing from
manlab, so no change to the program can move it.  run.py times it between
commands and divides each execution's time by the gauge times around it over
NOMINAL_S, which reads it in seconds of a host on which the gauge takes
NOMINAL_S.  A change that makes the program slower moves the scaled times as
much as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# The gauge's median on a quiet 2-vCPU Intel Xeon VM, BLAS on one thread.
NOMINAL_S = 0.10

_RNG = np.random.default_rng(20231222)
_SMALL = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_MEDIUM = _RNG.standard_normal((160, 160))


def gauge() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i
    for _ in range(1200):
        np.linalg.qr(_SMALL)
        _SMALL @ _SMALL
    for _ in range(6):
        np.linalg.svd(_MEDIUM)
    return time.perf_counter() - t0
