"""A fixed reference computation that measures how fast the host runs now.

The benchmark's hosts share their cores with other tenants, and their speed
switches between states in phases of seconds: the same piece of Python or
numpy work takes about 1.3-1.6 times longer in the slow state.  A run's
median item time then depends on which share of the run fell in which state,
and runs of the same code differ by 10-30%.

``probe(kind)`` times a fixed computation that does not touch the library,
of the kind of work a workload's items are made of: ``python`` is a
pure-Python dict loop and a loop of small numpy operations; ``blas`` is
matrix-vector products on an 8 MB matrix with the process's BLAS threads.
The worker runs it before the first timed item and after every item, and
``scaled_times`` rescales each item's wall time by ``REF_S`` over the time
of the probes around it: the item's time on a host where the probe takes
``REF_S``.  A change to the library moves scaled times as much as wall
times; the host's state moves them much less.  The probe runs in the
measuring process between items, so a library change that slowed the
process outside its own calls (a thread left spinning, say) would slow the
probe too and be partly hidden; the wall times are therefore reported
beside the scaled ones.
"""

from __future__ import annotations

import functools
import gc
import time

import numpy as np

REF_S = 0.004  # nominal probe time, a round figure near its time on a 2-vCPU Xeon host

_ROW = np.zeros(256)


def _python_part() -> int:
    d: dict[int, int] = {}
    for i in range(16000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return len(d)


def _numpy_part() -> float:
    s = _ROW
    s[:] = 0.0
    for i in range(200):
        s[i & 255] += s[:64].sum() + 1.0
    return float(s[0])


@functools.cache
def _matrix() -> tuple[np.ndarray, np.ndarray]:
    # 500 x 2001 doubles (8 MB), the shape of the dpp workload's phi
    rng = np.random.default_rng(0)
    return rng.standard_normal((500, 2001)), rng.standard_normal(2001)


def _blas_part() -> float:
    a, x = _matrix()
    y = 0.0
    for _ in range(16):
        y += float((a @ x)[0])
    return y


# Each workload names the kind of work its items are made of; the probe of
# that kind is slowed by the same contention as the items.
KINDS = {"python": (_python_part, _numpy_part), "blas": (_blas_part,)}


def probe(kind: str) -> float:
    """Wall seconds of one run of the reference computation of `kind`."""
    parts = KINDS[kind]
    enabled = gc.isenabled()
    gc.disable()  # the library's heap must not slow the probe through collections
    try:
        t = time.perf_counter()
        for part in parts:
            part()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scaled_times(times: list[float], probes: list[float]) -> np.ndarray:
    """Item times rescaled to the reference speed.

    ``probes[j]`` ran just before item ``j`` and ``probes[-1]`` after the
    last item, so there is one more probe than items.  Item ``i`` is scaled
    by the mean of the probes just before and just after it.  (Medians over
    wider windows of probes gave steadier medians on some workloads but
    wider 90th percentiles, since they blur the switches between states.)
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(probes, dtype=float)
    if p.size != t.size + 1:
        raise ValueError(f"{t.size} items need {t.size + 1} probes, got {p.size}")
    return t * (REF_S / ((p[:-1] + p[1:]) / 2))
