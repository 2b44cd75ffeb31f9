"""Extended-precision reference evaluation.

This is the deliberately *naive* route: power sums are formed term by term
in arbitrary-precision arithmetic (mpmath) and the textbook formula is
applied directly.  The term of value a and weight w at exponent e is

- ``w * a**e``, an integer power, when e is an integer;
- ``w * sqrt(a)**(2e)``, an integer power of the correctly rounded square
  root, when e is an odd multiple of 1/2;
- ``w * exp(e * ln a)`` for any other exponent.

The first two take no logarithm, and every exponent of the CLI's default
grid is of those kinds; the logs are taken only for other exponents and for
the p == q formula, which needs them.  The arithmetic runs on raw mpmath
values (``_mpf_`` tuples) through the ``mpmath.libmp`` functions that the
mpf operators, ``mp.fsum``, ``mp.exp``, ``mp.sqrt`` and ``mp.log`` call,
with the same operands, precision and rounding, so every reference value is
the one the operator form gives, bit for bit, without building an mpf
object per operation.  The terms at e = 0 and e = 1 take no power call, and
the power 1/(p - q) of a pair is formed once per precision and shared by
every sample.
None of this shares a method with
the log-domain kernel: there is no shift by the largest log, no log-sum-exp
and no tangent at small gaps, so agreement between the two is evidence that
both are right, not that they make the same mistake.  The price is a
restricted domain: inputs are capped where 50 digits of working precision
comfortably absorb the naive formula's dynamic range, and :data:`MAX_N`
values and :data:`MAX_DIGITS` digits cap the cost of a reference.  The fast
path agrees with the oracle when its relative error is at most
:data:`REL_TOL`.

A pair whose exponents differ by less than 1e-20 is evaluated at raised
precision.  At a gap h = |p - q| the ratio S_p / S_q is 1 + O(h), and
raising it to the power 1/h magnifies its rounding error by 1/h, so a fixed
precision loses about ceil(-log10 h) digits.  Such a pair gets its own lift
at the configured digits plus those, plus 10 of margin.  Every other pair
runs at the configured digits, so its double does not depend on this rule.
One body checks the domain, lifts and applies this rule for both
:func:`oracle_gini` and :func:`equivalence_report`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import mpmath as mp
from mpmath.libmp import (
    from_float, mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_pow, mpf_pow_int, mpf_rdiv_int,
    mpf_sqrt, mpf_sub, mpf_sum, to_float,
)

from ._util import _is_finite_real, _shown
from .errors import OracleDomainError, ParameterDomainError
from .means import _PowerSums
from .sample import (
    ExponentPair, PositiveSample, _checked_pairs, _checked_sample, _checked_samples
)

__all__ = ["oracle_gini", "equivalence_report", "EquivalenceSummary"]

#: Certified input domain of the oracle.  ``MAX_N`` caps the cost, not the
#: accuracy: a reference costs one extended-precision term per value.
MAX_N = 1024
MAX_ABS_EXPONENT = 30.0
MIN_VALUE = 1e-30
MAX_VALUE = 1e30
#: Largest relative error from the oracle that :func:`equivalence_report` passes.
REL_TOL = 1e-12
#: Pairs whose exponents differ by less than this get raised precision.
TINY_GAP = 1e-20
#: Digits added beyond those the gap cancels, for such a pair.
TINY_GAP_MARGIN_DIGITS = 10
#: Most working digits: a cost cap, as ``MAX_N`` is (100,000 took 10 s per mean).
MAX_DIGITS = 1000


def _checked_digits(digits: int) -> int:
    """The working precision ``digits`` as an int; an integer in [50, MAX_DIGITS]."""
    # finiteness first: int() raises a bare ValueError on NaN and an
    # OverflowError on infinity, and a huge int is no usable precision
    if not _is_finite_real(digits) or int(digits) != digits or digits < 50:
        raise ParameterDomainError(
            f"precision_digits must be an integer >= 50, got {_shown(digits)}"
        )
    if digits > MAX_DIGITS:
        raise ParameterDomainError(f"precision_digits must be <= {MAX_DIGITS}, got {digits}")
    return int(digits)


@functools.lru_cache(maxsize=64)
def _inverse_gap(p: float, q: float, prec: int, rounding: str) -> tuple:
    """``1 / (p - q)`` as a raw mpmath value at ``prec`` bits and ``rounding``.

    It depends on the pair and the precision alone, so every sample shares
    it; the cache is keyed by all four and holds at most 64 entries.  The
    calls are those of ``1 / (mpf(p) - mpf(q))``.
    """
    gap = mpf_sub(from_float(p), from_float(q), prec, rounding)
    return mpf_rdiv_int(1, gap, prec, rounding)


class _LiftedSample:
    """One sample lifted to raw mpmath values, its power sums memoised by exponent.

    Build it inside the ``mp.workdps`` block it is evaluated in: it reads
    the working precision and rounding once, and every value it keeps and
    every operation it makes is at that precision.  The values and weights
    are converted once, exactly, from their doubles.  The terms of an
    exponent e are formed on each call, and their power sum once per
    distinct exponent:

    - for an integer e, ``w * a**e``;
    - for an odd multiple e of 1/2, ``w * r**(2e)`` with ``r = sqrt(a)``;
    - for any other e, ``w * exp(e * ln a)``.

    The values are raw ``_mpf_`` tuples, and the arithmetic is the
    ``mpmath.libmp`` calls that the mpf operators, ``mp.fsum``, ``mp.exp``,
    ``mp.sqrt`` and ``mp.log`` make, on the same operands at the same
    precision and rounding: ``mpf_pow_int`` and ``mpf_mul`` for a term,
    ``mpf_sum`` for a sum, ``mpf_div``, ``mpf_sub``, ``mpf_rdiv_int`` and
    ``mpf_pow`` for the ratio of two sums raised to 1/(p - q),
    ``mpf_sqrt``, ``mpf_log``, ``mpf_exp`` and ``to_float``.  So every value
    is bit for bit the one the operator form gives, without an mpf object
    per operation, and shares no method with the kernel.

    mpmath forms an integer power with guard bits and rounds it once, so a
    term of the first form is within about one unit in the last place of
    the working precision, and one of the second within about |2e| units
    (the square root's rounding, raised to the power 2e).  ``exp(e * ln a)``
    carries the rounding of ``ln a`` times e, up to |e * ln a| units.
    The square roots and the logs are each taken once, by ``mpf_sqrt`` and
    ``mpf_log`` on the lifted values, when a term first needs them: a grid
    of integer and half-integer exponents without a p == q pair takes no
    log at all.  The terms at e = 0 and e = 1 take no power call:
    ``a**0`` is one, so those terms are the lifted weights, and ``a**1`` is
    ``a``, so those are ``w * a``.  Both hold at any precision of at least
    53 bits, as ``mpf_pow_int`` and ``mpf_mul`` then return a double's value
    unchanged.  ``0.0`` and ``-0.0`` share an entry.  The power
    1/(p - q) of a pair comes from :func:`_inverse_gap`.
    """

    def __init__(self, sample: PositiveSample) -> None:
        self._prec, self._rounding = mp.mp._prec_rounding
        self.values = [from_float(v) for v in sample.values.tolist()]
        self.weights = [from_float(w) for w in sample.weights.tolist()]
        self._roots: list[tuple] | None = None
        self._logs: list[tuple] | None = None
        self._sums: dict[float, tuple] = {}

    @property
    def roots(self) -> list[tuple]:
        if self._roots is None:
            self._roots = [mpf_sqrt(v, self._prec, self._rounding) for v in self.values]
        return self._roots

    @property
    def logs(self) -> list[tuple]:
        if self._logs is None:
            self._logs = [mpf_log(v, self._prec, self._rounding) for v in self.values]
        return self._logs

    def terms(self, exponent: float) -> list[tuple]:
        prec, rounding = self._prec, self._rounding
        # 2e is exact in binary, so this finds every multiple of 1/2
        twice = 2.0 * exponent
        if twice.is_integer():
            k = int(twice)
            if k == 0:
                return self.weights
            if k == 2:
                return [mpf_mul(w, a, prec, rounding) for w, a in zip(self.weights, self.values)]
            bases, power = (self.values, k // 2) if k % 2 == 0 else (self.roots, k)
            return [
                mpf_mul(w, mpf_pow_int(b, power, prec, rounding), prec, rounding)
                for w, b in zip(self.weights, bases)
            ]
        e = from_float(exponent)
        return [
            mpf_mul(w, mpf_exp(mpf_mul(e, lg, prec, rounding), prec, rounding), prec, rounding)
            for w, lg in zip(self.weights, self.logs)
        ]

    def power_sum(self, exponent: float) -> tuple:
        key = float(exponent)
        if key not in self._sums:
            self._sums[key] = mpf_sum(self.terms(key), self._prec, self._rounding)
        return self._sums[key]

    def gini(self, params: ExponentPair) -> float:
        prec, rounding = self._prec, self._rounding
        if params.p == params.q:
            tilted = self.terms(params.p)
            moment = mpf_sum(
                [mpf_mul(t, lg, prec, rounding) for t, lg in zip(tilted, self.logs)],
                prec, rounding,
            )
            mean_log = mpf_div(moment, mpf_sum(tilted, prec, rounding), prec, rounding)
            result = mpf_exp(mean_log, prec, rounding)
        else:
            ratio = mpf_div(self.power_sum(params.p), self.power_sum(params.q), prec, rounding)
            inverse_gap = _inverse_gap(params.p, params.q, prec, rounding)
            result = mpf_pow(ratio, inverse_gap, prec, rounding)
        return to_float(result, rnd=rounding)


def _references(
    sample: PositiveSample, grid: Iterable[ExponentPair], digits: int
) -> Iterator[float]:
    """Reference G(p, q) of each pair of ``grid`` on ``sample``, in order.

    Run it inside ``mp.workdps(digits)``.  Each pair is checked against
    the certified domain before anything is lifted.  The first ordinary
    pair lifts the sample at ``digits``, for every ordinary pair after it;
    a tiny-gap pair gets a raised lift of its own.
    """
    lifted: _LiftedSample | None = None
    for params in grid:
        if sample.n > MAX_N:
            raise OracleDomainError(f"sample size {sample.n} exceeds the oracle cap of {MAX_N}")
        if max(abs(params.p), abs(params.q)) > MAX_ABS_EXPONENT:
            raise OracleDomainError(
                f"|exponents| must be <= {MAX_ABS_EXPONENT} for the oracle, "
                f"got ({params.p}, {params.q})"
            )
        if sample.min_value < MIN_VALUE or sample.max_value > MAX_VALUE:
            raise OracleDomainError(
                f"oracle accepts values in [{MIN_VALUE}, {MAX_VALUE}], "
                f"got range [{sample.min_value}, {sample.max_value}]"
            )
        gap = abs(params.p - params.q)
        if 0.0 < gap < TINY_GAP:
            cancelled = math.ceil(-math.log10(gap))
            with mp.workdps(digits + cancelled + TINY_GAP_MARGIN_DIGITS):
                reference = _LiftedSample(sample).gini(params)
        else:
            if lifted is None:
                lifted = _LiftedSample(sample)
            reference = lifted.gini(params)
        yield reference


def oracle_gini(
    sample: PositiveSample, params: ExponentPair, precision_digits: int = 50
) -> float:
    """Reference G(p, q) by the naive formula at extended precision.

    ``precision_digits``, the working precision, must be an integer from 50
    to :data:`MAX_DIGITS`; anything else, or a ``params`` that is not an
    :class:`ExponentPair`, raises :class:`ParameterDomainError`, and a
    ``sample`` that is no :class:`PositiveSample` :class:`DataError`, as in
    :func:`equivalence_report`.  Raises
    :class:`OracleDomainError` outside the certified domain
    (n <= :data:`MAX_N`, |p|, |q| <= 30, values in [1e-30, 1e30]).  Inside
    it, the returned double is correct to <= 2 ulp (in practice: correctly
    rounded), at every exponent gap: a gap below :data:`TINY_GAP` raises the
    working precision (see the module docstring).  The default of 50 digits
    gives results well under 1 ulp of a double there, verified by the
    self-consistency check (doubling the digits changes nothing after
    rounding to double).  The caller's mpmath precision does not matter,
    and it is restored on return.
    """
    digits = _checked_digits(precision_digits)
    grid = _checked_pairs([params])
    with mp.workdps(digits):
        return next(_references(_checked_sample(sample, 0), grid, digits))


@dataclass(frozen=True)
class EquivalenceSummary:
    """Worst-case disagreement between the fast path and the oracle.

    ``cases`` counts the pairs compared and ``max_rel_error`` is the largest
    relative error among them.  ``worst_index`` is the position, in the
    samples passed to :func:`equivalence_report`, of the sample where it
    occurred, and ``worst_params`` the pair; both are None when no case
    disagreed at all.  ``passed`` is true when ``max_rel_error`` is at most
    :data:`REL_TOL`.
    """

    cases: int
    max_rel_error: float
    worst_index: int | None
    worst_params: ExponentPair | None
    passed: bool


def equivalence_report(
    samples: Sequence[PositiveSample],
    grid: Iterable[ExponentPair],
    precision_digits: int = 50,
    *,
    _memos: Sequence[_PowerSums] | None = None,
) -> EquivalenceSummary:
    """Compare :func:`ginikit.means.gini_mean` against the oracle pointwise.

    Every pair of ``grid``, read once, is evaluated on every sample, sample
    by sample and pair by pair in the order given, at the working precision
    ``precision_digits`` of :func:`oracle_gini`.  The summary holds five
    fields: ``cases``, ``max_rel_error``, ``worst_index``, ``worst_params``
    and ``passed``, which is true when the worst relative error is at most
    :data:`REL_TOL`.  A grid entry that is not an :class:`ExponentPair`
    raises :class:`ParameterDomainError` when the grid is read, before any
    evaluation; ``samples`` that cannot be iterated raise :class:`DataError`
    at once, and a sample that is not a :class:`PositiveSample` raises it
    when it is reached, before it is evaluated.

    The fast side holds one power-sum memo per sample, so each distinct
    exponent of a grid costs one kernel call (7 for the CLI's default grid
    of 6 pairs), and every fast value is bit for bit
    ``gini_mean`` of its pair.  ``_memos`` is private: the memo
    (:class:`ginikit.means._PowerSums`) of each sample, in the order of
    ``samples``, for a caller that reads them again after this call, as
    ``verify --oracle`` hands each to its sample's audit.  Without it, one
    memo is built per sample and dropped with it.

    The reference side runs the body of
    :func:`oracle_gini` on the grid, lifting each sample once, so
    every reference value is bit for bit ``oracle_gini`` of its pair; only
    the power 1/(p - q) of a pair, which no sample changes, is shared across
    samples.  The precision is checked and set once per call, as there.
    """
    digits = _checked_digits(precision_digits)
    # both sides walk the grid once per sample, so an iterator is read once here
    grid = _checked_pairs(grid)
    samples = _checked_samples(samples)
    worst = 0.0
    worst_params: ExponentPair | None = None
    worst_index: int | None = None
    cases = 0
    with mp.workdps(digits):
        for index, sample in enumerate(samples):
            # both sides keep their sums per sample, and none across samples
            sums = _PowerSums(sample) if _memos is None else _memos[index]
            references = _references(sample, grid, digits)
            for params in grid:
                fast = sums.gini(params)
                # after the fast value: a pair both sides refuse gets the fast side's error
                reference = next(references)
                rel = abs(fast - reference) / reference
                cases += 1
                if rel > worst:
                    worst = rel
                    worst_params = params
                    worst_index = index
    return EquivalenceSummary(
        cases=cases,
        max_rel_error=worst,
        worst_index=worst_index,
        worst_params=worst_params,
        passed=worst <= REL_TOL,
    )
