"""Pure-Python accumulation kernel.

This mirrors the compiled extension ``ginikit._kernels`` operation for
operation: same tilt t_i = p * ln a_i + ln w_i, same shift (the first
largest t_i), same Neumaier compensation branches, same association order in
every product, same libm ``exp``.  Keeping the two implementations
bit-identical is a hard requirement (golden CLI output must not depend on
which backend got selected), so any edit here must be replayed in
``_kernels.c`` and vice versa.

The kernel forms the tilt itself.  Which passes follow depends on the
request, the fourth argument ``moments``, taken by position only.  A full
call (``moments`` true, the default) runs two: one that sums the shifted
weights u_i = exp(t_i - shift) and the products u_i * ln a_i side by side,
and the centered variance pass, which needs the mean.  A total-only call
(``moments`` false), which is all a secant slope reads, runs the weight
total's pass alone and returns NaN for the mean and the variance.  Its
running sum and compensation follow the same recurrence, in the same
order, as the full call's, so its shift and total are the same bits.

In the loop, the Neumaier steps of the weight total and of the variance
test ``s >= y`` where the C kernel's one step tests ``fabs(s) >= fabs(y)``.
Both take the same branch there, because neither operand can be negative:
each weight exp(t_i - shift) is +0.0 or more (or NaN), each variance term
(u * d) * d carries the sign of u, and a running sum of such terms starts
at +0.0 and stays +0.0 or more, +inf or NaN.  For two such operands the
signed test and the ``abs`` test agree, and NaN fails both.  The first
moment's addends u_i * ln a_i can be negative, so its step keeps ``abs``,
and so does the numpy path, where each test is one array operation either
way.  The loop saves two ``abs`` calls per element; the C kernel, where
``fabs`` costs next to nothing, keeps one step for all three sums.

Inputs of ``VECTOR_MIN_N`` or more elements take a numpy path that still
mirrors the extension operation for operation, because it performs the same
IEEE-754 double operations in the same order as the loop:

* ``p * logs + log_weights`` rounds each product and each sum once, as the
  loop does;
* the shift is the tilt ``max`` picks in the loop, the first largest: it
  starts at t_0 and moves only to a strictly larger value, so a tie of -0.0
  with +0.0 gives the zero that comes first, a NaN after t_0 is passed
  over, and a NaN t_0 stays.  The numpy path takes the largest of the
  non-NaN tilts (``np.fmax.reduce``), then the first tilt equal to it,
  unless t_0 is NaN;
* ``np.cumsum`` (``np.add.accumulate``) is a strict left-to-right
  recurrence, unlike ``np.sum``'s pairwise reduction, so the running sums it
  yields are exactly the loop's successive ``t = s + x``;
* the Neumaier correction of each step depends only on that step's ``s``,
  ``x`` and ``t``, so it can be formed elementwise with the same branch
  test, and the correction total ``c`` is again a left-to-right ``cumsum``;
* the weights still come from ``math.exp`` (libm), never ``np.exp``, whose
  SIMD implementation rounds differently on some arguments.  The shifted
  tilts reach it through a ``memoryview`` of their array, which yields each
  double as a Python float without building a list of them; no arithmetic
  moves, so ``_kernels.c`` needs no matching change;
* products keep the association ``(u * d) * d`` and the final divisions are
  done on Python floats.

Below ``VECTOR_MIN_N`` numpy's fixed per-call cost outweighs the loop, so
small inputs stay on the loop, which makes no numpy call at all.
"""

from __future__ import annotations

import math

import numpy as np

#: Inputs at least this long take the numpy path; shorter ones the loop.
#: Both paths give bit-identical results, so this only affects speed.
VECTOR_MIN_N = 128

# The result for empty input: the largest of no terms is -inf, their sum
# 0.0, and their mean and variance are undefined.
_EMPTY_RESULT = (-math.inf, 0.0, math.nan, math.nan)


def exp_moments(
    logs: "list[float] | object",
    log_weights: "list[float] | object",
    p: float,
    moments: bool = True,
    /,
) -> tuple[float, float, float, float]:
    """Compensated moments of ln a under the tilt t_i = p * logs[i] + log_weights[i].

    Returns ``(shift, total, mean, variance)``: ``shift = max t_i``,
    ``total = sum(u)`` with u_i = exp(t_i - shift), ``mean`` the u-weighted
    average of ``logs`` and ``variance`` the u-weighted average of
    ``(logs - mean)**2`` (a centered second pass, so it is nonnegative by
    construction).  With ``moments`` false only the weight total is summed,
    and the result is ``(shift, total, nan, nan)``, with ``shift`` and
    ``total`` the same bits as the full call's.  Summation runs strictly in
    array order, so the caller fixes the order; the mean pipeline passes
    each sample's (ln a, ln w) order.  Empty input gives
    ``(-inf, 0.0, nan, nan)``; inputs of unequal length raise ValueError.
    """
    n = len(logs)
    if len(log_weights) != n:
        raise ValueError("logs and log_weights must have equal length")
    if n >= VECTOR_MIN_N:
        return _exp_moments_vector(logs, log_weights, p, moments)
    return _exp_moments_loop(logs, log_weights, p, moments)


def _exp_moments_loop(
    logs: "list[float] | object",
    log_weights: "list[float] | object",
    p: float,
    moments: bool = True,
) -> tuple[float, float, float, float]:
    # a list is read as it is, never written: a sample hands over the lists
    # it keeps (``PositiveSample._loop_lists``), so no call copies its logs
    lgs = logs if type(logs) is list else _as_list(logs)
    lws = log_weights if type(log_weights) is list else _as_list(log_weights)
    if not lgs:
        return _EMPTY_RESULT
    ts = [p * lg + lw for lg, lw in zip(lgs, lws)]
    shift = max(ts)
    exp = math.exp
    if not moments:
        # the full pass's s0/c0 steps alone, each weight formed as it is added
        s0 = c0 = 0.0
        for tilt in ts:
            x = exp(tilt - shift)
            t = s0 + x
            if s0 >= x:
                c0 += (s0 - t) + x
            else:
                c0 += (x - t) + s0
            s0 = t
        return shift, s0 + c0, math.nan, math.nan
    u = [exp(t - shift) for t in ts]

    # s0 and x, like s and y in the variance pass, are never negative, so
    # ``s0 >= x`` takes the branch of ``abs(s0) >= abs(x)`` (module docstring)
    s0 = c0 = s1 = c1 = 0.0
    for x, lg in zip(u, lgs):
        t = s0 + x
        if s0 >= x:
            c0 += (s0 - t) + x
        else:
            c0 += (x - t) + s0
        s0 = t
        y = x * lg
        t = s1 + y
        if abs(s1) >= abs(y):
            c1 += (s1 - t) + y
        else:
            c1 += (y - t) + s1
        s1 = t
    total = s0 + c0
    mean = (s1 + c1) / total

    s = 0.0
    c = 0.0
    for x, lg in zip(u, lgs):
        d = lg - mean
        y = x * d * d
        t = s + y
        if s >= y:
            c += (s - t) + y
        else:
            c += (y - t) + s
        s = t
    variance = (s + c) / total

    return shift, total, mean, variance


def _as_list(values: object) -> list[float]:
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _exp_moments_vector(
    logs: "list[float] | object",
    log_weights: "list[float] | object",
    p: float,
    moments: bool = True,
) -> tuple[float, float, float, float]:
    lgs = np.asarray(logs, dtype=np.float64)
    t = p * lgs + np.asarray(log_weights, dtype=np.float64)
    # the loop's max(): the first largest tilt, NaN only when t[0] is NaN
    shift = float(t[0])
    if not math.isnan(shift):
        shift = float(t[np.argmax(t == np.fmax.reduce(t))])
    # iterating a memoryview hands math.exp the same doubles as tolist() would,
    # without building a list of them
    u = np.fromiter(map(math.exp, memoryview(t - shift)), dtype=np.float64, count=t.size)
    # np.where below evaluates both Neumaier branches; on non-finite input
    # the unused one can raise floating-point warnings the loop never does
    with np.errstate(all="ignore"):
        total = _neumaier_sum(u)
        if not moments:
            return shift, total, math.nan, math.nan
        mean = _neumaier_sum(u * lgs) / total
        d = lgs - mean
        variance = _neumaier_sum((u * d) * d) / total
    return shift, total, mean, variance


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
