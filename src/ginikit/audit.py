"""Mechanical verification of the Gini-mean comparison inequalities.

All checks ride on one fact: f(p) = ln S_p is strictly convex for non-uniform
samples (its second derivative is the a**p-tilted variance of ln a, positive
unless all values coincide).  Hence the secant slope ln G(p, q) =
(f(p) - f(q)) / (p - q), the tangent f'(p) at p = q, is strictly
increasing in both endpoints, which gives

* monotonicity: raising a canonical (p, q) componentwise raises G(p, q),
  the one comparison rule here (:class:`ParameterOrder`);
* the power-mean comparison: G(p, q) against M_r = G(r, 0), by that rule;
* positivity of the convexity gap itself.

Margins are reported in the log domain (ln RHS - ln LHS) where the claims
are exact secant-slope differences, immune to the final exp rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._util import _shown
from .errors import HypothesisError, ParameterDomainError
from .means import _exponent, _PowerSums, log_power_sum
from .sample import ExponentPair, PositiveSample, _checked_pairs, _checked_sample

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


_new_object = object.__new__


@dataclass(frozen=True)
class ParameterOrder:
    """Two canonical :class:`ExponentPair` objects satisfying the comparison hypothesis.

    Requires componentwise dominance (upper.p >= lower.p and upper.q >= lower.q;
    p == q is allowed in either pair) and strict increase in at least one
    component.  Anything else raises :class:`HypothesisError`, and an entry
    that is no :class:`ExponentPair` :class:`ParameterDomainError`: outside
    these conditions the monotonicity claim is simply not asserted.
    """

    lower: ExponentPair
    upper: ExponentPair

    def __post_init__(self) -> None:
        _check_order(*_checked_pairs((self.lower, self.upper)))


def _check_order(lo: ExponentPair, up: ExponentPair) -> None:
    """The one comparison rule of this module; see :class:`ParameterOrder`."""
    if not (up.p >= lo.p and up.q >= lo.q):
        raise HypothesisError(
            "upper pair must dominate componentwise: "
            f"({up.p}, {up.q}) does not dominate ({lo.p}, {lo.q})"
        )
    if not (up.p > lo.p or up.q > lo.q):
        raise HypothesisError("at least one component must increase strictly")


def check_monotonicity(sample: PositiveSample, order: ParameterOrder) -> AuditVerdict:
    """Verify G(lower) < G(upper) for a componentwise-increased exponent pair.

    The margin is the slope difference ln G(upper) - ln G(lower).  Uniform
    samples give equality; they come back ``degenerate`` with margin
    exactly zero, never an error.  This is :func:`scan_monotonicity` on
    the one link of ``order``.
    """
    if not isinstance(order, ParameterOrder):
        raise ParameterDomainError(f"order must be a ParameterOrder, got {_shown(order)}")
    return scan_monotonicity(sample, (order.lower, order.upper))[0]


def check_power_mean_bound(
    sample: PositiveSample, p: float, q: float, r: float
) -> AuditVerdict:
    """Compare G(p, q) against the power mean M_r = G(r, 0) by the one rule.

    Of the canonical pairs (p, q) and (r, 0), the one the other dominates
    is the lower, and the verdict is :func:`check_monotonicity`'s on that
    :class:`ParameterOrder`: G(p, q) < M_r when (r, 0) dominates, with
    margin ln M_r - ln G, and M_r < G(p, q) when (p, q) does.  Equal or
    incomparable pairs get :class:`ParameterOrder`'s error, and exponents
    that are not finite reals :class:`ExponentPair`'s.
    """
    pairs = (ExponentPair(p, q), ExponentPair(r, 0.0))
    # of two pairs one of which dominates the other, the lower sorts first
    lower, upper = sorted(pairs, key=lambda pair: (pair.p, pair.q))
    return check_monotonicity(sample, ParameterOrder(lower, upper))


def convexity_gap(sample: PositiveSample, p: float) -> float:
    """d^2/dp^2 ln S_p: the a**p-tilted variance of ln a.

    Computed by a centered second pass, so the result is nonnegative by
    construction and zero exactly for uniform samples.  Strict positivity of
    this gap for non-uniform samples is what makes every strict inequality
    in this module strict.  A uniform sample gets 0.0 at every finite p,
    also where |p| * max|ln a| overflows and :func:`log_power_sum` refuses
    the exponent, as :func:`secant_slope` and every mean do.
    """
    p = _exponent(p)
    if _checked_sample(sample, 0).is_uniform:
        return 0.0
    return log_power_sum(sample, p).moment2_centered


def scan_monotonicity(
    sample: PositiveSample,
    grid: Iterable[ExponentPair],
    *,
    _sums: _PowerSums | None = None,
) -> list[AuditVerdict]:
    """Check every consecutive pair of a parameter grid, in order.

    The grid is read once and must be a chain: each consecutive pair of
    pairs has to satisfy the :class:`ParameterOrder` hypothesis, checked
    for every link before any evaluation.  Verdicts come back in grid
    order.  Without ``_sums``, evaluation is pure (no shared state), so
    callers may parallelize over samples; results are identical either way.

    ``_sums`` is private: a power-sum memo of ``sample``
    (:class:`ginikit.means._PowerSums`) that the caller holds, such as the
    one ``verify --oracle`` has filled through
    :func:`ginikit.oracle.equivalence_report`.  Every slope then reads it,
    so a log sum it already keeps costs no kernel call.  Each slope runs the
    same body on the same floats with or without it.
    """
    sample = _checked_sample(sample, 0)
    pairs = _checked_pairs(grid)
    links = list(zip(pairs, pairs[1:]))
    for lower, upper in links:
        _check_order(lower, upper)
    # each link's lower slope, then its upper one.  Without _sums each slope
    # forms its log sums afresh, as secant_slope does: the benchmark's tracer
    # self-test pins the kernel calls this makes on ``verify`` without
    # ``--oracle`` until ROADMAP item 11 releases that pin; then ROADMAP
    # item 3 drops ``fresh``, and a memo per sample serves every caller.
    ends = [(pair.p, pair.q) for pair in pairs]
    sums = _PowerSums(sample) if _sums is None else _sums
    slopes = sums.slopes([end for link in zip(ends, ends[1:]) for end in link], fresh=_sums is None)
    degenerate = sample.is_uniform
    verdicts = []
    for lo, up in zip(slopes[0::2], slopes[1::2]):
        margin = up - lo
        # AuditVerdict(...) without the frozen __init__'s object.__setattr__ per field
        verdict = _new_object(AuditVerdict)
        verdict.__dict__.update(
            holds=not degenerate and margin > 0.0,
            margin=margin,
            degenerate=degenerate,
            tolerance=strict_tolerance(max(abs(lo), abs(up))),
        )
        verdicts.append(verdict)
    return verdicts
