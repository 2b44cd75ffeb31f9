"""Pure-Python accumulation kernel.

This mirrors the compiled extension ``ginikit._kernels`` operation for
operation: same Neumaier compensation branches, same association order in
every product, same libm ``exp``.  Keeping the two implementations
bit-identical is a hard requirement (golden CLI output must not depend on
which backend got selected), so any edit here must be replayed in the
``.pyx`` file and vice versa.

Inputs of ``VECTOR_MIN_N`` or more elements take a numpy path that still
mirrors the extension operation for operation, because it performs the same
IEEE-754 double operations in the same order as the loop:

* ``np.cumsum`` (``np.add.accumulate``) is a strict left-to-right
  recurrence, unlike ``np.sum``'s pairwise reduction, so the running sums it
  yields are exactly the loop's successive ``t = s + x``;
* the Neumaier correction of each step depends only on that step's ``s``,
  ``x`` and ``t``, so it can be formed elementwise with the same branch
  test, and the correction total ``c`` is again a left-to-right ``cumsum``;
* the weights still come from ``math.exp`` (libm), never ``np.exp``, whose
  SIMD implementation rounds differently on some arguments;
* products keep the association ``(u * d) * d`` and the final divisions are
  done on Python floats.

Below ``VECTOR_MIN_N`` numpy's fixed per-call cost outweighs the loop, so
small inputs stay on the loop.
"""

from __future__ import annotations

import math

import numpy as np

#: Inputs at least this long take the numpy path; shorter ones the loop.
#: Both paths give bit-identical results, so this only affects speed.
VECTOR_MIN_N = 128


def exp_moments(
    exponents: "list[float] | object", logs: "list[float] | object", shift: float
) -> tuple[float, float, float]:
    """Compensated moment sums of the weights u_i = exp(exponents[i] - shift).

    Returns ``(total, mean, variance)`` where ``total = sum(u)``, ``mean`` is
    the u-weighted average of ``logs`` and ``variance`` the u-weighted average
    of ``(logs - mean)**2`` (one centered second pass, so it is nonnegative by
    construction).  Inputs must already be sorted; summation runs strictly in
    array order.
    """
    if len(exponents) >= VECTOR_MIN_N:
        return _exp_moments_vector(exponents, logs, shift)
    return _exp_moments_loop(exponents, logs, shift)


def _exp_moments_loop(
    exponents: "list[float] | object", logs: "list[float] | object", shift: float
) -> tuple[float, float, float]:
    exps = exponents.tolist() if hasattr(exponents, "tolist") else list(exponents)
    lgs = logs.tolist() if hasattr(logs, "tolist") else list(logs)

    u: list[float] = []
    s = 0.0
    c = 0.0
    for e in exps:
        x = math.exp(e - shift)
        u.append(x)
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    total = s + c

    s = 0.0
    c = 0.0
    for x, lg in zip(u, lgs):
        y = x * lg
        t = s + y
        if abs(s) >= abs(y):
            c += (s - t) + y
        else:
            c += (y - t) + s
        s = t
    mean = (s + c) / total

    s = 0.0
    c = 0.0
    for x, lg in zip(u, lgs):
        d = lg - mean
        y = x * d * d
        t = s + y
        if abs(s) >= abs(y):
            c += (s - t) + y
        else:
            c += (y - t) + s
        s = t
    variance = (s + c) / total

    return total, mean, variance


def _exp_moments_vector(
    exponents: "list[float] | object", logs: "list[float] | object", shift: float
) -> tuple[float, float, float]:
    exps = np.asarray(exponents, dtype=np.float64)
    lgs = np.asarray(logs, dtype=np.float64)
    u = np.fromiter(
        map(math.exp, (exps - shift).tolist()), dtype=np.float64, count=exps.size
    )
    # np.where below evaluates both Neumaier branches; on non-finite input
    # the unused one can raise floating-point warnings the loop never does
    with np.errstate(all="ignore"):
        total = _neumaier_sum(u)
        mean = _neumaier_sum(u * lgs) / total
        d = lgs - mean
        variance = _neumaier_sum((u * d) * d) / total
    return total, mean, variance


def _neumaier_sum(y: np.ndarray) -> float:
    """``s + c`` of the loop's Neumaier recurrence over ``y``, as a Python float."""
    # run[k] is the loop's s before step k; the leading +0.0 is the loop's
    # start value, so a first term of -0.0 sums to +0.0 as it does there
    run = np.concatenate(([0.0], y)).cumsum()
    s, t = run[:-1], run[1:]
    comp = np.where(np.abs(s) >= np.abs(y), (s - t) + y, (y - t) + s)
    # the loop adds comp[0] to c = +0.0.  comp[0] is never -0.0: either
    # y[0] is a zero, t[0] is +0.0 and comp[0] = (+0.0 - +0.0) + y[0] = +0.0,
    # or t[0] == y[0] and comp[0] = (y[0] - t[0]) + 0.0 is +0.0 or NaN.  So
    # starting this cumsum at comp[0] instead of at +0.0 changes no bit.
    return float(run[-1]) + float(comp.cumsum()[-1])
