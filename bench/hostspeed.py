"""How fast the host runs right now, from a fixed probe timed between ops.

The benchmark shares a few cores of a host with other tenants, and the same
ops run up to 1.9 times slower in some minutes than in others, and up to 1.8
times slower in some seconds than in the next; the process's CPU time grows
with its wall time, so the cycles are slower, not stolen.  A run therefore
times a fixed probe, independent of the package, every ``EVERY_S`` seconds
between ops: dict and set updates keyed on slices of 6,561 tuples,
interpreter work with a working set of about a megabyte.  When candidate
probes were timed after every op, a probe of this kind followed the ops'
time over 20- and 40-second windows with correlation 0.97 to 0.99 on the
log scale; a probe of small SVD ranks grew only about half as fast (on that
scale) as the ops, and one with a working set of a few kilobytes followed
them with correlation 0.64 to 0.78.

The host factor of a stretch of time is its mean probe time over
``NOMINAL_S``.  Dividing a measured time by a power of the factor around it
(see run.py) gives the time at nominal host speed: the figure the benchmark
reports.
"""
from __future__ import annotations

import gc
import itertools
import statistics
import time
from typing import Sequence

# Median probe time on a 2-vCPU 2.0 GHz Xeon VM (Python 3.11.7).  It only
# fixes the scale of reported times: on that host, a run at median host
# speed reports its wall-clock times.
NOMINAL_S = 4.2e-3
EVERY_S = 0.1  # least wall time between two probes in the timed phase

_COORDS = tuple(itertools.product(range(9), repeat=4))


def probe() -> float:
    """Seconds one run of the fixed probe takes.  The cyclic garbage collector
    is off meanwhile: a full collection would time the program's heap, not
    the host.  Everything the probe allocates is freed before it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows: dict = {}
        for c in _COORDS:
            rows.setdefault((c[0], c[1:3]), set()).add(c[3])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: Sequence[float]) -> float:
    """Host factor of a stretch of time: mean probe time over nominal."""
    return statistics.fmean(samples) / NOMINAL_S


def probe_for(seconds: float) -> list[float]:
    """Probe times over `seconds` of probing back to back (at least one)."""
    samples = [probe()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(probe())
    return samples
