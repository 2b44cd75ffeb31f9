"""Weighted Gini, Lehmer and power means, evaluated entirely in the log domain.

For a sample a with weights w, write S_p = sum_i w_i * a_i**p.  The two-
parameter Gini mean is

    G(p, q) = (S_p / S_q) ** (1 / (p - q))          for p != q,
    G(p, p) = exp( sum_i w_i a_i**p ln a_i / S_p )  at equal parameters,

with G(0, 0) the weighted geometric mean.  Lehmer means are G(p, p-1) and
power means are M_r = G(r, 0).  Each, G(p, p) included, is exp of one
slope of the convex function ln S_p, and :func:`secant_slope` is the only
code that forms it: every mean here and every verdict in
:mod:`ginikit.audit` goes through it.  Its body runs on a per-sample memo of
log sums, so a caller that evaluates several pairs of one sample can form
each ln S_p once (see :class:`_PowerSums`).

That path never materializes a_i**p.  One kernel call per exponent forms
the tilt t_i = p*ln(a_i) + ln(w_i), shifts by m = max(t_i) so every
exponential argument is <= 0, and accumulates exp(t_i - m) with compensated
summation in one order per sample, ascending (ln a_i, ln w_i), fixed when
the sample is built.  A full call sums the weight total and the first
moment in one pass and the centered variance in a second.  A secant reads
ln S_p alone, so the memo asks the kernel for the weight total only, one
pass, with the same bits, and keeps that log sum; the tangent makes one
full call and keeps nothing.  Results stay finite and inside
[min(a), max(a)] for values anywhere in the double range and any exponent
whose t_i are finite doubles, where the textbook formula overflows at |p|
in the hundreds.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import _backend
from ._util import _number, _shown
from .errors import ParameterDomainError
from .sample import ExponentPair, PositiveSample, _checked_pairs, _checked_sample

__all__ = [
    "LogPowerSum",
    "log_power_sum",
    "gini_mean",
    "identical_parameter_gini",
    "power_mean",
    "lehmer_mean",
    "extreme_value",
    "secant_slope",
]


class LogPowerSum(NamedTuple):
    """The log-domain summary of one power sum S_p.

    Attributes:
        p: the exponent.
        log_sum: ln S_p.
        moment1: (sum_i w_i a_i**p ln a_i) / S_p, the tilted mean of ln a.
            This equals d/dp ln S_p.
        moment2: (sum_i w_i a_i**p ln^2 a_i) / S_p, the tilted second moment.
        moment2_centered: the tilted variance of ln a, i.e.
            moment2 - moment1**2 computed by a centered pass, hence
            nonnegative by construction.  This equals d^2/dp^2 ln S_p.

    ``moment2`` is recomposed as ``moment1**2 + moment2_centered``, which
    guarantees ``moment2 >= moment1**2`` in floating point, with equality
    exactly for uniform samples.  A log sum formed with ``moments=False``
    (see :func:`log_power_sum`) has the same ``log_sum`` bits and NaN in
    all three moment fields.

    It is a named tuple, so it is immutable and cheap to build: it unpacks
    as ``p, log_sum, moment1, moment2, moment2_centered`` and compares equal
    to a plain tuple of those five floats.
    """

    p: float
    log_sum: float
    moment1: float
    moment2: float
    moment2_centered: float


_new_tuple = tuple.__new__


def _exponent(p: object, name: str = "p") -> float:
    """``p`` as the double of a finite exponent (:func:`ginikit._util._number`),
    refused in this module's words."""
    value = _number(p)
    if value is None:
        # raises unless a real; a real that fails is an int too large for a
        # double, or NaN, an infinity or a huge Fraction, which get the hint
        _number(p, not_real=f"exponent {name} must be a real number")
        raise ParameterDomainError(
            f"exponent {name} must be finite, got {_shown(p)}"
            + ("" if isinstance(p, int) else "; use extreme_value for limits")
        )
    return value


def log_power_sum(
    sample: PositiveSample, p: float, *, moments: bool = True
) -> LogPowerSum:
    """Evaluate ln S_p and the tilted log-moments, stably.

    One kernel call forms t_i = p * ln a_i + ln w_i and the shift m = max t_i,
    then accumulates the shifted weights u_i = exp(t_i - m) and the first
    moment in one pass and the centered variance in a second, all with
    Neumaier compensation in the sample's own order, ascending
    (ln a_i, ln w_i), which :class:`PositiveSample` fixes once for every
    exponent.  So the result is invariant under permutation of the sample
    and reproducible to the bit across backends.  The kernel, or any wrapper
    put in its place, gets the input the sample chose for it when it was
    built: float lists for the pure loop, the sorted arrays otherwise.

    With ``moments=False`` the kernel sums the shifted weights alone, in one
    pass.  ``log_sum`` is then the same bits as the full call's, and
    ``moment1``, ``moment2`` and ``moment2_centered`` are NaN, uniform
    samples included.  This is what a secant slope reads.

    ``moments`` is taken by its truth value; one that has none raises
    ParameterDomainError.  So does a p where |p| * max|ln a_i| overflows a
    double: there t_i is not finite and no moment of it can be formed.  The
    check is the same with or without moments.
    """
    # the common call, a float p and a bool moments, takes one test; every
    # other call, and one this test refuses, gets the full checks below
    if not (
        type(p) is float
        and type(moments) is bool
        and isinstance(sample, PositiveSample)
        and math.isfinite(abs(p) * sample._max_abs_log_value)
    ):
        p, moments = _checked_arguments(sample, p, moments)
    # mean and variance are NaN from a total-only call, and stay NaN below
    shift, total, mean, variance = _backend.exp_moments(
        sample._kernel_logs, sample._kernel_log_weights, p, moments
    )
    log_sum = shift + math.log(total)
    if moments and sample.is_uniform:
        # All values equal c: the tilted distribution of ln a is a point mass
        # at ln c whatever the weights, so short-circuit to the exact moments.
        mean = float(sample._sorted_log_values[0])
        variance = 0.0
    # tuple.__new__ builds the named tuple without the frame of its __new__
    return _new_tuple(LogPowerSum, (p, log_sum, mean, mean * mean + variance, variance))


def _checked_arguments(sample: object, p: object, moments: object) -> tuple[float, bool]:
    """``(p, moments)`` of a :func:`log_power_sum` call as a float and a bool,
    checked in the order its errors promise: the sample, ``moments``, then p."""
    _checked_sample(sample, 0)
    try:
        moments = bool(moments)
    except (TypeError, ValueError):  # no truth value, as for an empty numpy array
        raise ParameterDomainError(
            f"moments must be true or false, got {type(moments).__name__}"
        ) from None
    p = _exponent(p)
    if not math.isfinite(abs(p) * sample._max_abs_log_value):
        raise ParameterDomainError(
            f"exponent {p!r} is too large for this sample: "
            "|p| * max|ln a| overflows a double"
        )
    return p, moments


class _PowerSums:
    """The log sums of one sample, each formed once and kept by exponent.

    One object serves one sample, and keeps ln S_p alone, one float per
    exponent: that is all a secant reads.  :meth:`log_sum` calls
    :func:`log_power_sum` with ``moments=False``, one kernel pass, on the
    first request for an exponent, and :meth:`slopes` forms the same calls
    in its own frame.  The tangent reads the tilted mean at the midpoint
    from one full call and keeps nothing.  Every call looks
    :func:`log_power_sum` up by this module's global name, so a wrapper put
    there (a counter in a test, a tracer) sees every kernel call the memo
    makes.
    The key is the float itself, so ``0.0`` and ``-0.0`` share an entry:
    both tilt every term to ``ln w_i``, so their log sums are the same bits.
    An exponent whose evaluation raises is not kept.

    :meth:`slopes` is the only code that turns power sums into Gini slopes,
    and :meth:`slope` runs it on one pair.  :func:`secant_slope` and
    :func:`gini_mean` run it on a fresh object, and
    callers that evaluate several pairs of one sample (the averages of
    :mod:`ginikit.mwd`, the fast side of
    :func:`ginikit.oracle.equivalence_report`, and under ``verify --oracle``
    the audit of :func:`ginikit.audit.scan_monotonicity`, which reads the
    object the oracle filled) hold one object per sample, so an exponent
    shared by two pairs costs one kernel call.
    """

    __slots__ = ("sample", "_log_sums")

    def __init__(self, sample: PositiveSample) -> None:
        self.sample = sample
        self._log_sums: dict[float, float] = {}

    def log_sum(self, p: float) -> float:
        """ln S_p of the sample at the finite exponent ``p``."""
        found = self._log_sums.get(p)
        if found is None:
            found = log_power_sum(self.sample, p, moments=False).log_sum
            self._log_sums[p] = found
        return found

    def __contains__(self, p: float) -> bool:
        """True when ln S_p is kept."""
        return p in self._log_sums

    def keep(self, p: float, log_sum: float) -> None:
        """Keep ``log_sum`` as ln S_p: the bits :meth:`log_sum` would form,
        formed by a forked child (see :func:`ginikit.mwd._ginis`)."""
        self._log_sums[p] = log_sum

    def slope(self, p: float, q: float) -> float:
        """ln G(p, q) at the finite exponents ``p`` and ``q``; see :func:`secant_slope`."""
        return self.slopes(((p, q),))[0]

    def slopes(
        self, pairs: Sequence[tuple[float, float]], *, fresh: bool = False
    ) -> list[float]:
        """ln G(p, q) at each ``(p, q)`` of ``pairs``, in order.

        This is the body of every slope, run in one frame for all of them.
        With ``fresh``, each secant forms both its log sums, and the memo
        neither reads nor keeps them: the kernel calls of one fresh memo per
        slope, as :func:`secant_slope` takes it.
        """
        sample = self.sample
        if sample.is_uniform:
            return [math.log(float(sample.values[0]))] * len(pairs)
        kept = self._log_sums
        found = []
        for p, q in pairs:
            # below this gap the tangent's O(gap^2) error beats the secant's cancellation
            if abs(p - q) <= 1e-8 * (1.0 + max(abs(p), abs(q))):
                found.append(log_power_sum(sample, 0.5 * p + 0.5 * q).moment1)
                continue
            if fresh:
                log_p = log_power_sum(sample, p, moments=False).log_sum
                log_q = log_power_sum(sample, q, moments=False).log_sum
            else:
                log_p = kept.get(p)
                if log_p is None:
                    log_p = kept[p] = log_power_sum(sample, p, moments=False).log_sum
                log_q = kept.get(q)
                if log_q is None:
                    log_q = kept[q] = log_power_sum(sample, q, moments=False).log_sum
            found.append((0.5 * log_p - 0.5 * log_q) / (0.5 * p - 0.5 * q))
        return found

    def gini(self, params: ExponentPair) -> float:
        """G(p, q) of the sample; see :func:`gini_mean`."""
        value = math.exp(self.slope(params.p, params.q))
        # The exact mean lies in [min, max]; the computed one can escape by a few
        # ulps through the final exp.  Clamping restores the bound without moving
        # the value more than that rounding error.  On a uniform sample the
        # range is [c, c], so the mean is exactly c.
        return min(max(value, self.sample.min_value), self.sample.max_value)


def secant_slope(sample: PositiveSample, p: float, q: float) -> float:
    """Secant slope (ln S_p - ln S_q) / (p - q); equals ln G(p, q).

    The one place where power sums become a Gini slope: this runs the body
    of :meth:`_PowerSums.slopes` on a fresh memo, and the callers that keep a
    memo per sample run the same body.  Since ln S_p is convex in p, this
    slope is nondecreasing in both endpoints, which is the engine behind
    every inequality check in :mod:`ginikit.audit`.  The secant reads the
    two log sums alone, so each costs one total-only kernel pass
    (``log_power_sum(..., moments=False)``).  For p == q (within a gap of
    1e-8 * (1 + max(|p|, |q|))) it is the tangent d/dp ln S_p, served by
    the tilted mean of ln a at the midpoint, from one full kernel call that
    the memo does not keep.  Uniform samples short-circuit to ln of the
    common value.

    Both differences and the midpoint are formed from halves, so they stay
    finite when p - q, p + q or ln S_p - ln S_q would overflow.  Halving a
    normal double is exact, so this changes no bit anywhere else.

    This is the entry that takes raw exponents: it checks p, then q, as
    finite reals before the memo runs.  :func:`gini_mean` and the memo's
    other callers pass an :class:`ExponentPair`, checked when it was built.
    """
    p = _exponent(p, "p")
    q = _exponent(q, "q")
    return _PowerSums(_checked_sample(sample, 0)).slope(p, q)


def gini_mean(sample: PositiveSample, params: ExponentPair) -> float:
    """The two-parameter Gini mean G(p, q) of a positive weighted sample.

    exp of :func:`secant_slope`, clamped to the sample's range.  Symmetric
    in (p, q) by construction (the pair is stored in canonical order).  The
    result always lies in [min(sample), max(sample)] and is finite for any
    finite exponents that :func:`log_power_sum` accepts on this sample;
    beyond them it raises ParameterDomainError.  A uniform sample returns
    its common value at any finite exponents.
    """
    (params,) = _checked_pairs((params,))
    return _PowerSums(_checked_sample(sample, 0)).gini(params)


def identical_parameter_gini(sample: PositiveSample, p: float) -> float:
    """G(p, p): exp of the a**p-tilted mean of ln a.

    It is ``gini_mean(sample, ExponentPair(p, p))`` to the bit: exp of the
    tangent slope of :func:`secant_slope`.  At p = 0 this is the weighted
    geometric mean.  Raises ParameterDomainError where :func:`log_power_sum`
    does, except on a uniform sample, which returns its common value at any
    finite p, as :func:`gini_mean` does.
    """
    p = _exponent(p)
    return gini_mean(sample, ExponentPair(p, p))


def power_mean(sample: PositiveSample, r: float) -> float:
    """The weighted power mean M_r = (sum w a**r / sum w) ** (1/r).

    Implemented as G(r, 0), which is the same function: with q = 0 the
    denominator power sum is the total weight.  For |r| up to about 1e-8,
    where :func:`secant_slope` takes the tangent, the result is exp of the
    tilted mean of ln a at r / 2: within O(r^2) of M_r, and at r = 0 the
    weighted geometric mean, M_0's limiting value.
    """
    r = _exponent(r, "r")
    return gini_mean(sample, ExponentPair(r, 0.0))


def lehmer_mean(sample: PositiveSample, p: float) -> float:
    """The Lehmer mean sum(w a**p) / sum(w a**(p-1)), i.e. G(p, p-1)."""
    p = _exponent(p)
    return gini_mean(sample, ExponentPair(p, p - 1.0))


def extreme_value(sample: PositiveSample, which: str) -> float:
    """Exact max or min of the sample: the p -> +inf / q -> -inf mean limits."""
    if not isinstance(which, str) or which not in ("max", "min"):
        raise ParameterDomainError(f"which must be 'max' or 'min', got {which!r}")
    sample = _checked_sample(sample, 0)
    return sample.max_value if which == "max" else sample.min_value
