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
One function checks the domain, and one body lifts and applies this rule,
for both :func:`oracle_gini` and :func:`equivalence_report`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import mpmath as mp
from mpmath.libmp import (
    from_float, mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_pow, mpf_pow_int, mpf_rdiv_int,
    mpf_sqrt, mpf_sub, mpf_sum, to_float,
)

from ._util import _from_both_ends, _parameter
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

#: Least sum of n x (pairs of the grid) over the samples of an
#: :func:`equivalence_report` for which a forked child computes references
#: from the back.  A fork and its reap cost about as much as this many
#: reference terms (see ``_FORK_MIN_TERMS`` in ``BENCH_oracle_fork.json``).
_FORK_MIN_TERMS = 1000


def _checked_digits(digits: int) -> int:
    """The working precision ``digits`` as an int; an integer in [50, MAX_DIGITS]."""
    whole = _parameter(
        digits, "precision_digits must be an integer >= 50", lambda d: d >= 50, integral=True
    )
    if whole > MAX_DIGITS:
        raise ParameterDomainError(f"precision_digits must be <= {MAX_DIGITS}, got {digits}")
    return whole


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
        if exponent not in self._sums:
            self._sums[exponent] = mpf_sum(self.terms(exponent), self._prec, self._rounding)
        return self._sums[exponent]

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


def _check_domain(sample: PositiveSample, params: ExponentPair) -> None:
    """Raise :class:`OracleDomainError` when ``params`` on ``sample`` lies
    outside the certified domain: the one home of the domain checks, in the
    order their errors come (size, exponents, values)."""
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


def _check_domains(samples: Sequence[PositiveSample], grid: Sequence[ExponentPair]) -> None:
    """Check every (sample, pair) against the certified domain, sample by
    sample and pair by pair, before any reference is formed.

    At the first one outside it, the pair's fast value is formed before
    its :class:`OracleDomainError` is raised, so a pair that both sides
    refuse raises the fast side's error, as a loop that forms the fast
    value and then the reference of each pair in turn would.  Inside the
    domain neither side raises: |p| <= 30 and values in [1e-30, 1e30] keep
    every tilt finite.
    """
    for index, sample in enumerate(samples):
        # once every pair has passed on the first sample, every exponent is
        # in bounds, and the first pair checks the rest of a sample
        for params in grid if index == 0 else grid[:1]:
            try:
                _check_domain(sample, params)
            except OracleDomainError:
                _PowerSums(sample).gini(params)
                raise


def _references(
    sample: PositiveSample, grid: Iterable[ExponentPair], digits: int
) -> Iterator[float]:
    """Reference G(p, q) of each pair of ``grid`` on ``sample``, in order.

    Run it inside ``mp.workdps(digits)``, on pairs that
    :func:`_check_domain` has passed.  The first ordinary pair lifts the
    sample at ``digits``, for every ordinary pair after it; a tiny-gap pair
    gets a raised lift of its own.
    """
    lifted: _LiftedSample | None = None
    for params in grid:
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
    sample = _checked_sample(sample, 0)
    _check_domain(sample, params)
    with mp.workdps(digits):
        return next(_references(sample, grid, digits))


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


@contextlib.contextmanager
def _reference_stream(
    samples: Sequence[PositiveSample], grid: Sequence[ExponentPair], digits: int
) -> Iterator[Callable[[Sequence[float]], EquivalenceSummary]]:
    """The oracle's side of a sweep of ``grid`` over ``samples``, around the
    block that forms the fast side.

    Every (sample, pair) is checked against the certified domain first
    (:func:`_check_domains`), so nothing after that raises.  Then, when the
    sizes of the samples times the grid's pairs sum to at least
    ``_FORK_MIN_TERMS`` and two CPUs are usable, a forked child computes
    the references from the last sample back and streams each sample's
    doubles (see :func:`ginikit._util._from_both_ends`), while the block
    runs.  The block gets ``compare``: ``compare(fast)`` takes the fast
    values, sample by sample and pair by pair in order, walks the
    references from the first sample on, taking each sample's from the
    stream once it has arrived and computing it here before that, and
    returns the :class:`EquivalenceSummary`.  The walk kills the child
    where the two meet, and the child is reaped when the block ends, by
    returning or by raising.  ``digits`` is checked already, and the
    working precision is ``digits`` for the whole block.
    """
    _check_domains(samples, grid)
    record = struct.Struct(f"={len(grid)}d")

    def sent_references(index: int) -> bytes:  # the child's work
        return record.pack(*_references(samples[index], grid, digits))

    # the samples are read from the back only where a fork pays
    terms = len(grid) * sum(s.n for s in samples)
    count = len(samples) if terms >= _FORK_MIN_TERMS else 0
    with mp.workdps(digits), _from_both_ends(count, sent_references) as received:

        def compare(fast: Sequence[float]) -> EquivalenceSummary:
            worst = 0.0
            worst_params: ExponentPair | None = None
            worst_index: int | None = None
            values = iter(fast)
            for index, sample in enumerate(samples):
                sent = received(index)
                references = (
                    _references(sample, grid, digits) if sent is None else record.unpack(sent)
                )
                for params, reference in zip(grid, references):
                    rel = abs(next(values) - reference) / reference
                    if rel > worst:
                        worst = rel
                        worst_params = params
                        worst_index = index
            return EquivalenceSummary(
                cases=len(samples) * len(grid),
                max_rel_error=worst,
                worst_index=worst_index,
                worst_params=worst_params,
                passed=worst <= REL_TOL,
            )

        yield compare


def equivalence_report(
    samples: Iterable[PositiveSample],
    grid: Iterable[ExponentPair],
    precision_digits: int = 50,
) -> EquivalenceSummary:
    """Compare :func:`ginikit.means.gini_mean` against the oracle pointwise.

    Every pair of ``grid`` is evaluated on every sample of ``samples``, both
    read once, at the working precision ``precision_digits`` of
    :func:`oracle_gini`.  The summary holds five fields: ``cases``,
    ``max_rel_error``, ``worst_index``, ``worst_params`` and ``passed``,
    which is true when the worst relative error is at most
    :data:`REL_TOL`.  A grid entry that is not an :class:`ExponentPair`
    raises :class:`ParameterDomainError`, and ``samples`` that cannot be
    iterated, or an entry of it that is not a :class:`PositiveSample`, raise
    :class:`DataError`, each when it is read, before any evaluation.  Then
    every (sample, pair) is checked against the oracle's domain, sample by
    sample and pair by pair, before any reference is formed: the first one
    outside it raises :class:`OracleDomainError`, after its fast value, so
    a pair that both sides refuse gets the fast side's error.

    The fast side holds one power-sum memo per sample, dropped with it, so
    each distinct exponent of a grid costs one kernel call (7 for the CLI's
    default grid of 6 pairs), and every fast value is bit for bit
    ``gini_mean`` of its pair.  The reference side runs the body of
    :func:`oracle_gini` on the grid, lifting each sample once, so every
    reference value is bit for bit ``oracle_gini`` of its pair; only the
    power 1/(p - q) of a pair, which no sample changes, is shared across
    samples.  The precision is checked and set once per call, as there.

    When the sizes of the samples times the grid's pairs sum to at least
    ``_FORK_MIN_TERMS``, and two CPUs are usable, a forked child computes
    the references from the last sample back while this process forms the
    fast values of every sample; this process then computes references from
    the first sample on and takes the rest from the child's stream (see
    :func:`_reference_stream`).  The child makes no kernel call and raises
    nothing here, so every byte of the summary, and every error with its
    message, is that of one process.
    """
    digits = _checked_digits(precision_digits)
    # both sides walk the grid per sample and index the samples: read each once here
    grid = _checked_pairs(grid)
    samples = _checked_samples(samples)
    with _reference_stream(samples, grid, digits) as compare:
        fast = array("d")
        for sample in samples:
            sums = _PowerSums(sample)
            fast.extend([sums.gini(params) for params in grid])
        return compare(fast)
