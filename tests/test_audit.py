"""Inequality audit: verdict semantics, orders, margins, convexity."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginikit.audit import (
    AuditVerdict,
    ParameterOrder,
    check_monotonicity,
    check_power_mean_bound,
    convexity_gap,
    scan_monotonicity,
    strict_tolerance,
)
from ginikit.errors import HypothesisError, ParameterDomainError
from ginikit.means import gini_mean, log_power_sum, secant_slope
from ginikit.sample import ExponentPair, PositiveSample

from helpers import (
    EQUAL_PAIR_EXPONENTS,
    POWER_MEAN_BRACKETINGS,
    merged_route_outcomes,
    random_sample,
    route_samples,
)

# mpmath at 60 digits: ln(sqrt(2.5)) and the p=1 tilted variance of {1,2,3}
LN_SQRT_2_5 = 0.45814536593707755
GAP_123_P1 = 0.15467123982314282


class TestParameterOrder:
    def test_valid_orders(self):
        ParameterOrder(ExponentPair(1.0, 0.0), ExponentPair(2.0, 0.0))
        ParameterOrder(ExponentPair(1.0, -1.0), ExponentPair(1.0, 0.0))
        ParameterOrder(ExponentPair(1.0, 0.0), ExponentPair(2.0, 1.0))

    def test_pair_must_be_strictly_ordered_inside(self):
        with pytest.raises(HypothesisError):
            ParameterOrder(ExponentPair(1.0, 1.0), ExponentPair(2.0, 1.5))

    def test_dominance_required(self):
        with pytest.raises(HypothesisError):
            ParameterOrder(ExponentPair(3.0, 2.0), ExponentPair(1.0, 0.0))
        with pytest.raises(HypothesisError):
            # p rises but q falls: incomparable
            ParameterOrder(ExponentPair(1.0, 0.0), ExponentPair(2.0, -1.0))

    def test_strict_increase_required(self):
        with pytest.raises(HypothesisError):
            ParameterOrder(ExponentPair(2.0, 1.0), ExponentPair(2.0, 1.0))


class TestVerdictSemantics:
    def test_weak_flag(self):
        weak = AuditVerdict(holds=True, margin=5e-13, degenerate=False, tolerance=1e-12)
        solid = AuditVerdict(holds=True, margin=0.2, degenerate=False, tolerance=1e-12)
        failed = AuditVerdict(holds=False, margin=-0.1, degenerate=False, tolerance=1e-12)
        degen = AuditVerdict(holds=False, margin=0.0, degenerate=True, tolerance=1e-12)
        assert weak.weak and not solid.weak and not failed.weak
        assert failed.failed
        assert not degen.failed
        assert not degen.weak

    def test_tolerance_scales_with_magnitude(self):
        assert strict_tolerance(0.0) == 1e-12
        assert strict_tolerance(100.0) == pytest.approx(1.01e-10)


class TestCheckMonotonicity:
    def test_basic_chain_on_two_values(self):
        s = PositiveSample([1.0, 2.0])
        v1 = check_monotonicity(
            s, ParameterOrder(ExponentPair(1.0, 0.0), ExponentPair(2.0, 0.0))
        )
        assert v1.holds and not v1.degenerate
        # ln sqrt(2.5) - ln 1.5
        assert v1.margin == pytest.approx(LN_SQRT_2_5 - math.log(1.5), rel=1e-12)
        v2 = check_monotonicity(
            s, ParameterOrder(ExponentPair(2.0, 0.0), ExponentPair(2.0, 1.0))
        )
        assert v2.holds
        assert v2.margin == pytest.approx(math.log(5.0 / 3.0) - LN_SQRT_2_5, rel=1e-12)

    def test_margin_is_log_mean_difference(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            s = random_sample(rng)
            order = ParameterOrder(ExponentPair(1.0, -1.0), ExponentPair(3.0, 2.0))
            v = check_monotonicity(s, order)
            expected = math.log(gini_mean(s, order.upper)) - math.log(
                gini_mean(s, order.lower)
            )
            assert v.margin == pytest.approx(expected, abs=1e-12)

    def test_uniform_is_degenerate_not_error(self):
        s = PositiveSample([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
        v = check_monotonicity(
            s, ParameterOrder(ExponentPair(1.0, 0.0), ExponentPair(2.0, 0.0))
        )
        assert v.degenerate
        assert not v.holds
        assert v.margin == 0.0

    @given(
        shift_p=st.floats(min_value=0.0, max_value=3.0),
        shift_q=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_margin_never_meaningfully_negative(self, shift_p, shift_q, seed):
        # slopes of a convex function: raising endpoints cannot lower the
        # secant, so margins are >= -noise even for tiny parameter shifts
        rng = np.random.default_rng(seed)
        s = random_sample(rng)
        p1, q1 = 2.0, -1.5
        p2, q2 = p1 + shift_p, q1 + shift_q
        if p2 == p1 and q2 == q1:
            # shifts so small they round away entirely; use a tiny real one
            p2 = p1 + 1e-9
        v = check_monotonicity(
            s, ParameterOrder(ExponentPair(p1, q1), ExponentPair(p2, q2))
        )
        assert v.margin >= -1e-12


class TestCheckPowerMeanBound:
    def test_low_side(self):
        # G(1,-1) of {1,2} is sqrt(2) < M_1 = 1.5
        s = PositiveSample([1.0, 2.0])
        v = check_power_mean_bound(s, 1.0, -1.0, 1.0)
        assert v.holds
        assert v.margin == pytest.approx(
            math.log(1.5) - math.log(math.sqrt(2.0)), rel=1e-12
        )

    def test_high_side(self):
        # G(1, 0.5) of {1,4} is 25/9 > M_1 = 2.5
        s = PositiveSample([1.0, 4.0])
        v = check_power_mean_bound(s, 1.0, 0.5, 1.0)
        assert v.holds
        assert v.margin == pytest.approx(math.log(25.0 / 9.0) - math.log(2.5), rel=1e-12)

    @pytest.mark.parametrize(
        "p,q,r",
        [
            (1.0, 0.0, 1.0),   # q = 0 fits neither side
            (3.0, -1.0, 2.0),  # r < p with q < 0
            (2.0, -1.0, -1.0), # r <= 0
            (1.0, 1.0, 2.0),   # p = q
        ],
    )
    def test_neither_side_rejected(self, p, q, r):
        with pytest.raises(HypothesisError):
            check_power_mean_bound(PositiveSample([1.0, 2.0]), p, q, r)

    @pytest.mark.parametrize(
        "p,q,r,message",
        [
            (math.inf, 1.0, 2.0, "exponents must be finite, got p=inf, q=1.0"),
            (1.0, -1.0, math.inf, "exponents must be finite, got p=inf, q=0.0"),
        ],
    )
    def test_non_finite_exponent_is_a_pair_error(self, p, q, r, message):
        # it passes the bracket test, then ExponentPair refuses it
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            check_power_mean_bound(PositiveSample([1.0, 2.0]), p, q, r)

    @pytest.mark.parametrize(
        "p,q,r",
        [
            ("1", -1.0, 2.0),
            (1.0, None, 2.0),
            (3.0, 1.0, 2j),
            (1.0, -1.0, np.array([2.0, 3.0])),
        ],
        ids=["str", "None", "complex", "array"],
    )
    def test_non_real_exponent_is_a_pair_error(self, p, q, r):
        # the bracket test cannot compare it; ExponentPair's message names why
        with pytest.raises(ParameterDomainError, match="^exponents must be real numbers$"):
            check_power_mean_bound(PositiveSample([1.0, 2.0, 3.0]), p, q, r)

    def test_uniform_degenerate(self):
        v = check_power_mean_bound(PositiveSample([2.0, 2.0]), 1.0, -1.0, 1.0)
        assert v.degenerate and not v.holds and v.margin == 0.0

    def test_agrees_with_monotonicity_margins_bitwise(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            s = random_sample(rng)
            # low side corresponds to the order (p,q) -> (r,0)
            low = check_power_mean_bound(s, 1.0, -1.0, 2.0)
            mono = check_monotonicity(
                s, ParameterOrder(ExponentPair(1.0, -1.0), ExponentPair(2.0, 0.0))
            )
            assert low.margin == mono.margin
            assert low == mono
            # high side corresponds to the order (r,0) -> (p,q)
            high = check_power_mean_bound(s, 3.0, 1.0, 2.0)
            mono2 = check_monotonicity(
                s, ParameterOrder(ExponentPair(2.0, 0.0), ExponentPair(3.0, 1.0))
            )
            assert high.margin == mono2.margin
            assert high == mono2
        # margin, tolerance and flags bit for bit, errors included, over more
        # bracketings; test_backends holds this under both backends
        rows = [row for row in merged_route_outcomes() if row[0] == "power_mean_bound"]
        assert len(rows) == len(route_samples()) * len(POWER_MEAN_BRACKETINGS)
        assert [row for row in rows if row[3] != row[4]] == []

    def test_agrees_with_monotonicity_on_uniform_samples(self):
        s = PositiveSample([3.0, 3.0, 3.0], [1.0, 2.0, 0.5])
        low = check_power_mean_bound(s, 1.0, -1.0, 2.0)
        mono = check_monotonicity(
            s, ParameterOrder(ExponentPair(1.0, -1.0), ExponentPair(2.0, 0.0))
        )
        assert low == mono and low.degenerate and not low.holds


class TestSecantSlope:
    def test_single_value_slope_is_log(self):
        s = PositiveSample([math.e])
        assert secant_slope(s, 2.0, 1.0) == 1.0

    def test_uniform_slope_is_log(self):
        s = PositiveSample([5.0, 5.0], [2.0, 3.0])
        assert secant_slope(s, 7.0, -2.0) == math.log(5.0)

    def test_slope_is_log_of_gini(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_sample(rng)
            assert math.exp(secant_slope(s, 2.0, 0.5)) == gini_mean(
                s, ExponentPair(2.0, 0.5)
            )

    def test_near_equal_parameters_fall_back_to_tangent(self):
        s = PositiveSample([1.0, 2.0, 3.0])
        p = 1.0 + 1e-12
        expected = log_power_sum(s, 0.5 * (p + 1.0)).moment1
        assert secant_slope(s, p, 1.0) == expected

    def test_monotone_in_endpoints(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            s = random_sample(rng)
            base = secant_slope(s, 1.0, -1.0)
            assert secant_slope(s, 1.5, -1.0) >= base - 1e-12
            assert secant_slope(s, 1.0, -0.5) >= base - 1e-12


class TestConvexityGap:
    def test_two_point_quarter(self):
        # {1, e} at p = 0: variance of {0, 1} with equal weights is 1/4
        s = PositiveSample([1.0, math.e])
        assert convexity_gap(s, 0.0) == 0.25

    def test_uniform_gap_zero(self):
        assert convexity_gap(PositiveSample([3.0, 3.0]), 1.0) == 0.0

    def test_uniform_gap_zero_at_every_finite_exponent(self):
        # also where |p| * max|ln a| overflows, as G(p, p) of the route
        # corpus's uniform samples is their common value there
        uniform = [s for s in route_samples() if s.is_uniform]
        uniform.append(PositiveSample([1e300, 1e300]))
        for s in uniform:
            for p in EQUAL_PAIR_EXPONENTS:
                assert convexity_gap(s, p) == 0.0
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterDomainError, match="finite"):
                convexity_gap(PositiveSample([1e300, 1e300]), p)

    def test_reference_value(self):
        s = PositiveSample([1.0, 2.0, 3.0])
        assert convexity_gap(s, 1.0) == pytest.approx(GAP_123_P1, rel=1e-13)

    def test_matches_finite_difference(self):
        s = PositiveSample([1.0, 2.0, 3.0])
        p = 1.0
        h = 1e-4 * (1.0 + abs(p))
        fd = (secant_slope(s, p + h, p) - secant_slope(s, p, p - h)) / h
        gap = convexity_gap(s, p)
        assert gap == pytest.approx(fd, rel=1e-6)

    @given(
        values=st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
        p=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_always(self, values, p):
        assert convexity_gap(PositiveSample(values), p) >= 0.0

    def test_positive_floor_for_clustered_spread(self):
        # clustered samples with value ratio >= 1 + 1e-6 keep the gap above
        # 1e-15 of the second moment; mild exponents so the tilt cannot
        # concentrate the mass away from the differing values
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            center = 10.0 ** rng.uniform(-2.0, 2.0)
            ratio = 1.0 + 10.0 ** rng.uniform(-6.0, -0.3)
            values = center * (1.0 + (ratio - 1.0) * rng.uniform(0.0, 1.0, n))
            values[0] = center
            values[1] = center * ratio
            s = PositiveSample(values, rng.uniform(0.9, 1.1, n))
            p = float(rng.uniform(-1.0, 1.0))
            lps = log_power_sum(s, p)
            assert lps.moment2_centered > 1e-15 * lps.moment2


class TestScanMonotonicity:
    CHAIN = [
        ExponentPair(1.0, -1.0),
        ExponentPair(1.0, 0.0),
        ExponentPair(2.0, 0.0),
        ExponentPair(2.0, 1.0),
        ExponentPair(3.0, 2.0),
    ]

    def test_chain_all_hold(self):
        verdicts = scan_monotonicity(PositiveSample([1.0, 2.0]), self.CHAIN)
        assert len(verdicts) == 4
        assert all(v.holds for v in verdicts)

    def test_uniform_all_degenerate(self):
        verdicts = scan_monotonicity(PositiveSample([2.0, 2.0]), self.CHAIN)
        assert all(v.degenerate for v in verdicts)

    def test_unsortable_grid_rejected_before_evaluation(self):
        bad = [ExponentPair(3.0, 2.0), ExponentPair(1.0, 0.0)]
        with pytest.raises(HypothesisError):
            scan_monotonicity(PositiveSample([1.0, 2.0]), bad)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        s = random_sample(rng)
        a = scan_monotonicity(s, self.CHAIN)
        b = scan_monotonicity(s, self.CHAIN)
        assert [v.margin for v in a] == [v.margin for v in b]
