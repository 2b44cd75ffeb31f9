"""A fixed reference task that tells how fast the host runs at the moment.

On a VM with two vCPUs of a shared host the speed wanders: the same op
can take 1.5x as long from one second to the next, and the level drifts
from minute to minute.  Run to run, op times in wall seconds then spread
by 15-40% (quartile distance over median) for that reason alone.  The probe
is a few milliseconds of fixed work of the kinds ginikit's ops are made
of (interpreter-bound records and float loops, many small numpy calls,
large numpy array passes) that uses no ginikit code, so no change to the
program can move it.  Each CLI call is timed between two probes and
divided by their mean: the op times the gated metrics use are in units
of the probe's time at the moment the op ran.
"""

from __future__ import annotations

import gc
import json
import math
import time

import numpy as np

_RNG = np.random.default_rng(20160905)
_BIG = _RNG.random(100_000)
_SMALL = [_RNG.random(int(n)) for n in _RNG.integers(2, 17, size=200)]
_FLOATS = (_RNG.random(20_000) * -30.0).tolist()


def _records() -> None:
    recs = [{"i": i, "v": i * 0.37, "s": f"{i:05d}"} for i in range(3000)]
    recs.sort(key=lambda r: (r["s"][::-1], r["v"]))
    json.dumps(recs[:500])
    ",".join(repr(r["v"]) for r in recs)


def _float_loop() -> None:
    s = c = 0.0
    for e in _FLOATS:
        x = math.exp(e)
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t


def _small_arrays() -> None:
    for a in _SMALL:
        logs = np.log(a)
        order = np.lexsort((a, logs))
        top = logs.max()
        math.log(np.exp(logs - top).sum()) + top
        a[order].tolist()


def _big_arrays() -> None:
    np.sort(_BIG)
    np.exp(_BIG).sum()
    (_BIG * _BIG).cumsum()


def probe() -> float:
    """Wall seconds of one run of the reference task (about 15 ms)."""
    # With the collector off the probe's cost does not depend on how many
    # objects the program keeps alive; what it allocates is freed by refcount.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _records()
        _float_loop()
        _small_arrays()
        _big_arrays()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
