"""Extended-precision reference evaluation.

This is the deliberately *naive* route: power sums are formed term by term
as exp(p * ln a_i) in arbitrary-precision arithmetic (mpmath) and the
textbook formula is applied directly.  It shares no code with the log-domain
kernel, so agreement between the two is evidence that both are right, not
that they make the same mistake.  The price is a restricted domain: inputs
are capped where 50 digits of working precision comfortably absorb the
naive formula's dynamic range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from ._util import _shown
from .errors import OracleDomainError, ParameterDomainError
from .means import gini_mean
from .sample import ExponentPair, PositiveSample

__all__ = ["OracleConfig", "oracle_gini", "equivalence_report", "EquivalenceSummary"]

#: Certified input domain of the oracle.
MAX_ABS_EXPONENT = 30.0
MIN_VALUE = 1e-30
MAX_VALUE = 1e30


@dataclass(frozen=True)
class OracleConfig:
    """Working precision and size cap for the reference evaluator.

    ``precision_digits`` must be at least 50; ``max_n`` at most 1024.  The
    defaults give results correct to well under 1 ulp of a double over the
    certified domain, verified by the self-consistency check (doubling the
    digits changes nothing after rounding to double).
    """

    precision_digits: int = 50
    max_n: int = 1024

    def __post_init__(self) -> None:
        if int(self.precision_digits) != self.precision_digits or self.precision_digits < 50:
            raise ParameterDomainError(
                "precision_digits must be an integer >= 50, "
                f"got {_shown(self.precision_digits)}"
            )
        if int(self.max_n) != self.max_n or not 1 <= self.max_n <= 1024:
            raise ParameterDomainError(
                f"max_n must be an integer in [1, 1024], got {_shown(self.max_n)}"
            )
        object.__setattr__(self, "precision_digits", int(self.precision_digits))
        object.__setattr__(self, "max_n", int(self.max_n))


def _check_domain(
    sample: PositiveSample, params: ExponentPair, config: OracleConfig
) -> None:
    if sample.n > config.max_n:
        raise OracleDomainError(
            f"sample size {sample.n} exceeds the oracle cap of {config.max_n}"
        )
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


class _LiftedSample:
    """One sample lifted to mpf, with its tilted terms memoised by exponent.

    Build it inside the ``mp.workdps`` block it is evaluated in: the cached
    mpf numbers carry that working precision.  The values and weights are
    converted and the logs taken once; the terms ``w * exp(e * ln a)`` and
    their power sum are formed once per distinct exponent, by the same
    mpmath operations the per-pair formula would run, so every result is
    the one a fresh evaluation gives.  ``0.0`` and ``-0.0`` share an entry:
    both convert to the same mpf zero.
    """

    def __init__(self, sample: PositiveSample) -> None:
        values = [mp.mpf(float(v)) for v in sample.values]
        self.weights = [mp.mpf(float(w)) for w in sample.weights]
        self.logs = [mp.log(v) for v in values]
        self._terms: dict[float, list[mp.mpf]] = {}
        self._sums: dict[float, mp.mpf] = {}

    def terms(self, exponent: float) -> list[mp.mpf]:
        key = float(exponent)
        if key not in self._terms:
            e = mp.mpf(key)
            self._terms[key] = [w * mp.exp(e * lg) for w, lg in zip(self.weights, self.logs)]
        return self._terms[key]

    def power_sum(self, exponent: float) -> mp.mpf:
        key = float(exponent)
        if key not in self._sums:
            self._sums[key] = mp.fsum(self.terms(key))
        return self._sums[key]

    def gini(self, params: ExponentPair) -> float:
        if params.p == params.q:
            tilted = self.terms(params.p)
            result = mp.exp(
                mp.fsum(t * lg for t, lg in zip(tilted, self.logs))
                / self.power_sum(params.p)
            )
        else:
            ratio = self.power_sum(params.p) / self.power_sum(params.q)
            result = ratio ** (1 / (mp.mpf(float(params.p)) - mp.mpf(float(params.q))))
        return float(result)


def oracle_gini(
    sample: PositiveSample,
    params: ExponentPair,
    config: OracleConfig = OracleConfig(),
) -> float:
    """Reference G(p, q) by the naive formula at extended precision.

    Raises :class:`OracleDomainError` outside the certified domain
    (n <= config.max_n, |p|, |q| <= 30, values in [1e-30, 1e30]).  Inside
    it, the returned double is correct to <= 2 ulp (in practice: correctly
    rounded).
    """
    _check_domain(sample, params, config)
    with mp.workdps(config.precision_digits):
        return _LiftedSample(sample).gini(params)


@dataclass(frozen=True)
class EquivalenceSummary:
    """Worst-case disagreement between the fast path and the oracle.

    ``worst_index`` is the position of ``worst_sample`` in the samples
    passed to :func:`equivalence_report`.  The three ``worst_*`` fields are
    None when no case disagreed at all.
    """

    cases: int
    max_rel_error: float
    worst_sample: PositiveSample | None
    worst_params: ExponentPair | None
    rel_tol: float
    passed: bool
    worst_index: int | None = None


def equivalence_report(
    samples: Sequence[PositiveSample],
    grids: Sequence[Sequence[ExponentPair]],
    config: OracleConfig = OracleConfig(),
    rel_tol: float = 1e-12,
) -> EquivalenceSummary:
    """Compare :func:`ginikit.means.gini_mean` against the oracle pointwise.

    ``grids[i]`` lists the exponent pairs to evaluate on ``samples[i]`` (a
    single shared grid may be passed as ``[grid] * len(samples)``).
    Iteration order is deterministic; the summary records the worst relative
    error and where it occurred.
    """
    if len(grids) != len(samples):
        raise ParameterDomainError(
            f"need one grid per sample, got {len(grids)} grids for {len(samples)} samples"
        )
    worst = 0.0
    worst_sample: PositiveSample | None = None
    worst_params: ExponentPair | None = None
    worst_index: int | None = None
    cases = 0
    for index, (sample, grid) in enumerate(zip(samples, grids)):
        # Each sample is lifted once, after its first pair passes the domain
        # check, and serves every pair of its grid; nothing is kept across
        # samples.
        lifted: _LiftedSample | None = None
        for params in grid:
            fast = gini_mean(sample, params)
            _check_domain(sample, params, config)
            with mp.workdps(config.precision_digits):
                if lifted is None:
                    lifted = _LiftedSample(sample)
                reference = lifted.gini(params)
            rel = abs(fast - reference) / reference
            cases += 1
            if rel > worst:
                worst = rel
                worst_sample = sample
                worst_params = params
                worst_index = index
    return EquivalenceSummary(
        cases=cases,
        max_rel_error=worst,
        worst_sample=worst_sample,
        worst_params=worst_params,
        rel_tol=rel_tol,
        passed=worst <= rel_tol,
        worst_index=worst_index,
    )
