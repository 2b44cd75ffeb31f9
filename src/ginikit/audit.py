"""Mechanical verification of the Gini-mean comparison inequalities.

All checks ride on one fact: f(p) = ln S_p is strictly convex for non-uniform
samples (its second derivative is the a**p-tilted variance of ln a, positive
unless all values coincide).  Hence the secant slope ln G(p, q) =
(f(p) - f(q)) / (p - q) is strictly increasing in both endpoints, which gives

* monotonicity: raising (p, q) componentwise raises G(p, q);
* the power-mean comparison: G(p, q) vs M_r = G(r, 0) with the bracketing
  parameter orders;
* positivity of the convexity gap itself.

Margins are reported in the log domain (ln RHS - ln LHS) where the claims
are exact secant-slope differences, immune to the final exp rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._util import _shown
from .errors import HypothesisError, ParameterDomainError
from .means import _finite_exponent, log_power_sum, secant_slope
from .sample import ExponentPair, PositiveSample

__all__ = [
    "AuditVerdict",
    "ParameterOrder",
    "check_monotonicity",
    "check_power_mean_bound",
    "convexity_gap",
    "scan_monotonicity",
    "strict_tolerance",
]


def strict_tolerance(log_scale: float) -> float:
    """Margin below which a positive verdict is flagged as weak.

    Scaled to the magnitude of the log-means involved: differences smaller
    than about 1e-12 * (1 + |ln G|) are within accumulated rounding error of
    the two slope evaluations, so a "holds" with such a margin should not be
    read as numerically established.
    """
    return 1e-12 * (1.0 + abs(log_scale))


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of one inequality check.

    Attributes:
        holds: the strict inequality was confirmed (margin > 0).  Always
            False for degenerate inputs, where equality is the true answer.
        margin: log-domain gap ln RHS - ln LHS.  Positive when the strict
            inequality holds numerically.
        degenerate: the sample was uniform, so the inequality collapses to
            equality and neither "holds" nor "fails" applies.
        tolerance: the weak-margin threshold that applied to this check.

    A verdict with ``0 < margin <= tolerance`` still reports ``holds=True``
    but exposes ``weak=True`` so callers can treat it with suspicion.
    """

    holds: bool
    margin: float
    degenerate: bool
    tolerance: float

    @property
    def weak(self) -> bool:
        """True when the inequality held by less than the noise tolerance."""
        return self.holds and self.margin <= self.tolerance

    @property
    def failed(self) -> bool:
        """True when a non-degenerate check did not hold."""
        return not self.holds and not self.degenerate


@dataclass(frozen=True)
class ParameterOrder:
    """A pair of exponent pairs satisfying the comparison hypothesis.

    Requires p > q within each pair, componentwise dominance
    (upper.p >= lower.p and upper.q >= lower.q) and strict increase in at
    least one component.  Anything else raises :class:`HypothesisError`:
    outside these conditions the monotonicity claim is simply not asserted.
    """

    lower: ExponentPair
    upper: ExponentPair

    def __post_init__(self) -> None:
        lo, up = self.lower, self.upper
        if not (lo.p > lo.q and up.p > up.q):
            raise HypothesisError(
                "each pair must have p > q strictly "
                f"(got lower=({lo.p}, {lo.q}), upper=({up.p}, {up.q}))"
            )
        if not (up.p >= lo.p and up.q >= lo.q):
            raise HypothesisError(
                "upper pair must dominate componentwise: "
                f"({up.p}, {up.q}) does not dominate ({lo.p}, {lo.q})"
            )
        if not (up.p > lo.p or up.q > lo.q):
            raise HypothesisError("at least one component must increase strictly")


def check_monotonicity(sample: PositiveSample, order: ParameterOrder) -> AuditVerdict:
    """Verify G(lower) < G(upper) for a componentwise-increased exponent pair.

    The margin is the secant-slope difference ln G(upper) - ln G(lower).
    Uniform samples give equality; they come back ``degenerate`` with margin
    exactly zero, never an error.  Every verdict of this module is built
    here.
    """
    lo = secant_slope(sample, order.lower.p, order.lower.q)
    up = secant_slope(sample, order.upper.p, order.upper.q)
    margin = up - lo
    tolerance = strict_tolerance(max(abs(lo), abs(up)))
    degenerate = sample.is_uniform
    return AuditVerdict(not degenerate and margin > 0.0, margin, degenerate, tolerance)


def check_power_mean_bound(
    sample: PositiveSample, p: float, q: float, r: float
) -> AuditVerdict:
    """Compare G(p, q) against the power mean M_r on its two valid sides.

    Exactly one bracketing applies:

    * r >= p > q with r > 0 > q: then G(p, q) < M_r, margin = ln M_r - ln G.
    * p >= r > 0 with p > q > 0: then M_r < G(p, q), margin = ln G - ln M_r.

    Any other (p, q, r) raises :class:`HypothesisError`.  The verdict is
    :func:`check_monotonicity`'s on the order ((p,q), (r,0)) resp.
    ((r,0), (p,q)), so the two can never disagree; a non-finite exponent
    that passes the bracket test gets :class:`ExponentPair`'s error, and an
    exponent the bracket test cannot compare gets its message for a value
    that is not a real number.
    """
    try:
        side_low = (r >= p > q) and (r > 0.0 > q)
        side_high = (p >= r > 0.0) and (p > q > 0.0)
    except (TypeError, ValueError) as exc:
        raise ParameterDomainError("exponents must be real numbers") from exc
    if side_low == side_high:
        raise HypothesisError(
            f"(p={_shown(p)}, q={_shown(q)}, r={_shown(r)}) fits neither bracketing "
            "of the power-mean comparison (need r >= p > q, r > 0 > q, or p >= r > 0, "
            "p > q > 0)"
        )
    gini, power = ExponentPair(p, q), ExponentPair(r, 0.0)
    order = ParameterOrder(gini, power) if side_low else ParameterOrder(power, gini)
    return check_monotonicity(sample, order)


def convexity_gap(sample: PositiveSample, p: float) -> float:
    """d^2/dp^2 ln S_p: the a**p-tilted variance of ln a.

    Computed by a centered second pass, so the result is nonnegative by
    construction and zero exactly for uniform samples.  Strict positivity of
    this gap for non-uniform samples is what makes every strict inequality
    in this module strict.  A uniform sample gets 0.0 at every finite p,
    also where |p| * max|ln a| overflows and :func:`log_power_sum` refuses
    the exponent, as :func:`secant_slope` and every mean do.
    """
    p = _finite_exponent(p)
    if sample.is_uniform:
        return 0.0
    return log_power_sum(sample, p).moment2_centered


def scan_monotonicity(
    sample: PositiveSample, grid: Sequence[ExponentPair]
) -> list[AuditVerdict]:
    """Check every consecutive pair of a parameter grid, in order.

    The grid must be a chain: each consecutive pair of pairs has to satisfy
    the :class:`ParameterOrder` hypothesis, otherwise :class:`HypothesisError`
    is raised before any evaluation.  Verdicts come back in grid order.
    Evaluation is pure (no shared state), so callers may parallelize over
    samples; results are identical either way.
    """
    orders = [
        ParameterOrder(lower=grid[i], upper=grid[i + 1]) for i in range(len(grid) - 1)
    ]
    return [check_monotonicity(sample, order) for order in orders]
