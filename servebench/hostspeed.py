"""Host speed, measured beside the program.

The shared 2-core host runs the same code a quarter and more slower for
minutes at a time, in CPU time as much as in wall time.  So each
benchmark process times a small fixed kernel between ops (never while an
op runs) and reports its timings as *host time at reference speed*: the
measured time divided by :func:`slowdown`, the kernel's median time over
:data:`REFERENCE_S`.  Raw times and the slowdown are printed beside every
normalized figure (README.md, "Host drift").

The kernel streams two arrays much larger than the CPU caches through
memory: what slows the program's ops on this host is what slows it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The kernel's median time between ops on an unloaded 2-core Intel Xeon
#: host, python 3.11, numpy 2.4, one BLAS thread.  A constant, so it
#: cancels out of every comparison between two commits.
REFERENCE_S = 0.008

_A = np.ones(2_000_000)
_B = np.ones(2_000_000)


def sample() -> float:
    """Seconds the fixed kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            np.add(_A, 1.0, out=_B)
            np.multiply(_B, _A, out=_B)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(timings) -> float:
    """How much slower than the reference the host ran: the median kernel
    time over :data:`REFERENCE_S`."""
    return statistics.median(timings) / REFERENCE_S
