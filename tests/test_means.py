"""Mean evaluation: reference values, invariants, stability."""

from __future__ import annotations

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginikit import _backend, _kernels_py
from ginikit.errors import DataError, ParameterDomainError
from ginikit.means import (
    LogPowerSum,
    _PowerSums,
    extreme_value,
    gini_mean,
    identical_parameter_gini,
    lehmer_mean,
    log_power_sum,
    power_mean,
    secant_slope,
)
from ginikit.sample import ExponentPair, PositiveSample

from helpers import (
    EQUAL_PAIR_EXPONENTS,
    assert_within_ulps,
    log_uniform,
    merged_route_outcomes,
    random_sample,
    route_samples,
)

# Reference doubles, mpmath at 50+ digits unless exactly representable.
SQRT_2_5 = 1.5811388300841898
CBRT_4 = 1.5874010519681996
SEVEN_THIRDS = 2.3333333333333335

values_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=12
)
exponent_strategy = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


class TestLogPowerSum:
    def test_huge_range_stays_finite(self):
        s = PositiveSample([1e200, 1e-200])
        lps = log_power_sum(s, 2.0)
        # ln(1e400 + 1e-400) to double precision
        assert lps.log_sum == pytest.approx(921.0340371976183, rel=1e-14)
        assert math.isfinite(lps.moment1)
        assert math.isfinite(lps.moment2)

    def test_weighted_sum(self):
        # S_1 of values {1, 2} weights {1, 3} is 7; moments of ln under tilt
        s = PositiveSample([1.0, 2.0], [1.0, 3.0])
        lps = log_power_sum(s, 1.0)
        assert lps.log_sum == pytest.approx(math.log(7.0), rel=1e-15)

    def test_uniform_moments_exact(self):
        s = PositiveSample([3.0, 3.0, 3.0], [1.0, 2.0, 5.0])
        lps = log_power_sum(s, 4.0)
        assert lps.moment1 == math.log(3.0)
        assert lps.moment2 == lps.moment1 * lps.moment1
        assert lps.moment2_centered == 0.0

    def test_is_an_immutable_named_tuple(self):
        lps = log_power_sum(PositiveSample([1.0, 2.0], [1.0, 3.0]), 1.0)
        fields = ("p", "log_sum", "moment1", "moment2", "moment2_centered")
        assert LogPowerSum._fields == fields
        assert lps == tuple(getattr(lps, name) for name in fields)
        p, log_sum, *_ = lps
        assert (p, log_sum) == (1.0, lps.log_sum)
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(lps, name, 0.0)

    def test_non_finite_exponent_rejected(self):
        s = PositiveSample([1.0, 2.0])
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ParameterDomainError):
                log_power_sum(s, bad)

    @given(values=values_strategy, p=exponent_strategy)
    @settings(max_examples=80, deadline=None)
    def test_moment_inequality(self, values, p):
        s = PositiveSample(values)
        lps = log_power_sum(s, p)
        assert lps.moment2 >= lps.moment1 * lps.moment1
        if s.is_uniform:
            assert lps.moment2 == lps.moment1 * lps.moment1

    def test_summation_order_is_fixed_per_sample(self, monkeypatch):
        # every exponent sums the sample's own (ln a, ln w)-sorted logs: the
        # same two arrays each time, handed over as built, with ties in ln a
        # broken by ln w
        calls = []
        kernel = _backend.exp_moments

        def recording(logs, log_weights, p, moments=True):
            calls.append((logs, log_weights))
            return kernel(logs, log_weights, p, moments)

        monkeypatch.setattr(_backend, "exp_moments", recording)
        s = PositiveSample(
            [8.0, 2.0, 8.0, 0.5, 2.0, 8.0], [1.0, 3.0, 0.25, 2.0, 3.0, 4.0]
        )
        for p in (-3.0, 0.0, 3.0):
            log_power_sum(s, p)
        assert len(calls) == 3
        assert all(logs is s._sorted_log_values for logs, _ in calls)
        assert all(lw is s._sorted_log_weights for _, lw in calls)
        logs, lw = calls[0]
        assert np.all(np.diff(logs) >= 0.0)
        ties = np.diff(logs) == 0.0
        assert ties.any()
        assert np.all(np.diff(lw)[ties] >= 0.0)

    def test_log_sum_alone_keeps_the_bits(self):
        # moments=False forms ln S_p alone, the same bits as the full call,
        # on uniform samples too, and refuses the same exponents
        exponents = (*EQUAL_PAIR_EXPONENTS, -30.0, 1.7, 3.0)
        for s in route_samples():
            for p in exponents:
                try:
                    full = log_power_sum(s, p)
                except ParameterDomainError as exc:
                    with pytest.raises(ParameterDomainError, match=str(exc)):
                        log_power_sum(s, p, moments=False)
                    continue
                alone = log_power_sum(s, p, moments=False)
                assert isinstance(alone, LogPowerSum)
                assert (alone.p.hex(), alone.log_sum.hex()) == (full.p.hex(), full.log_sum.hex())
                assert all(math.isnan(x) for x in alone[2:])

    def test_pure_loop_reads_the_lists_kept_once_per_sample(self, monkeypatch):
        # with the pure kernel, a sample below VECTOR_MIN_N hands the loop the
        # two lists it made when it was built; a larger one keeps none
        monkeypatch.setattr(_backend, "exp_moments", _kernels_py.exp_moments)
        handed = []
        loop = _kernels_py._exp_moments_loop

        def recording(logs, log_weights, p, moments=True):
            handed.append((logs, log_weights))
            return loop(logs, log_weights, p, moments)

        monkeypatch.setattr(_kernels_py, "_exp_moments_loop", recording)
        monkeypatch.setattr(_backend, "BACKEND", "python")
        small = PositiveSample([8.0, 2.0, 0.5], [1.0, 3.0, 2.0])
        large = PositiveSample(np.arange(1.0, _kernels_py.VECTOR_MIN_N + 1.0))
        assert large._loop_lists is None
        logs, log_weights = small._loop_lists
        assert logs == small._sorted_log_values.tolist()
        assert log_weights == small._sorted_log_weights.tolist()
        for p in (-3.0, 0.0, 3.0):
            full = log_power_sum(small, p)
            assert handed[-1][0] is logs and handed[-1][1] is log_weights
            alone = log_power_sum(small, p, moments=False)
            assert handed[-1][0] is logs and handed[-1][1] is log_weights
            assert alone.log_sum.hex() == full.log_sum.hex()
        assert logs == small._sorted_log_values.tolist()
        assert len(handed) == 6
        log_power_sum(large, 1.0)
        assert len(handed) == 6
        # a tracer's functools.wraps wrapper of the pure kernel gets the lists too
        monkeypatch.setattr(
            _backend, "exp_moments", functools.wraps(_kernels_py.exp_moments)(
                lambda *args: _kernels_py.exp_moments(*args)
            ),
        )
        log_power_sum(small, 1.0, moments=False)
        assert handed[-1][0] is logs and len(handed) == 7

    def test_lists_are_kept_for_the_pure_backend_alone(self, monkeypatch):
        monkeypatch.setattr(_backend, "BACKEND", "compiled")
        assert PositiveSample([1.0, 2.0])._loop_lists is None
        monkeypatch.setattr(_backend, "BACKEND", "python")
        assert PositiveSample([1.0, 2.0])._loop_lists is not None

    @pytest.mark.parametrize(
        "p, moments, want",
        [
            # a float subclass, a bool and a signed zero come back as plain floats
            (np.float64(2.5), True, (2.5, 5.902270150224073, 2.063040848284771,
                                     4.282544317703845, 0.026406776012298752)),
            (True, True, (1.0, 2.8903717578961645, 1.8869006581909622,
                          3.8703159454521776, 0.30992185157069163)),
            (-0.0, True, (-0.0, 1.252762968495368, 1.2872733353256127,
                          2.5395373592819217, 0.8824647194415942)),
            # moments by its truth value
            (2.0, 0, (2.0, 4.875197323201151, math.nan, math.nan, math.nan)),
            (2.0, 1, (2.0, 4.875197323201151, 2.042403142718617,
                      4.232387618790872, 0.06097702140398827)),
            (2.0, np.bool_(True), (2.0, 4.875197323201151, 2.042403142718617,
                                   4.232387618790872, 0.06097702140398827)),
            (2.0, np.bool_(False), (2.0, 4.875197323201151, math.nan, math.nan, math.nan)),
            (2.0, np.array([1]), (2.0, 4.875197323201151, 2.042403142718617,
                                  4.232387618790872, 0.06097702140398827)),
        ],
        ids=["np.float64", "True", "-0.0", "moments-0", "moments-1", "np.bool_-true",
             "np.bool_-false", "array-1"],
    )
    def test_arguments_off_the_common_path_keep_their_results(self, p, moments, want):
        got = log_power_sum(PositiveSample([1.0, 2.0, 8.0], [1.0, 0.5, 2.0]), p, moments=moments)
        assert type(got) is LogPowerSum
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize(
        "sample, p, moments, message",
        [
            (None, math.nan, np.array([]), "sample 0 must be a PositiveSample, got NoneType"),
            (None, 1.0, True, "sample 0 must be a PositiveSample, got NoneType"),
            ("s", math.nan, np.array([]), "moments must be true or false, got ndarray"),
            ("s", 2.0, np.array([]), "moments must be true or false, got ndarray"),
            ("s", 10**400, True,
             "exponent p must be finite, got an integer too large for a double"),
            ("s", math.nan, True, "exponent p must be finite, got nan; use extreme_value for limits"),
            ("s", math.inf, False, "exponent p must be finite, got inf; use extreme_value for limits"),
            ("s", -math.inf, True,
             "exponent p must be finite, got -inf; use extreme_value for limits"),
            ("s", 1e308, False,
             "exponent 1e+308 is too large for this sample: |p| * max|ln a| overflows a double"),
        ],
    )
    def test_arguments_off_the_common_path_keep_their_messages(self, sample, p, moments, message):
        # the checks run in the order they always did: sample, moments, then p
        if sample == "s":
            sample = PositiveSample([1.0, 2.0, 8.0], [1.0, 0.5, 2.0])
        error = DataError if sample is None else ParameterDomainError
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            log_power_sum(sample, p, moments=moments)

    def test_moment_inequality_strict_when_spread(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_sample(rng)
            if s.max_value / s.min_value < 1.000001:
                continue
            lps = log_power_sum(s, float(rng.uniform(-5, 5)))
            assert lps.moment2 > lps.moment1 * lps.moment1


class TestGiniMean:
    def test_reference_values(self):
        assert_within_ulps(
            gini_mean(PositiveSample([1.0, 7.0]), ExponentPair(2.0, 0.0)), 5.0, 2
        )
        assert_within_ulps(
            gini_mean(PositiveSample([1.0, 2.0, 3.0]), ExponentPair(2.0, 1.0)),
            SEVEN_THIRDS,
            2,
        )
        # lands exactly: the slope is computed from symmetric power sums
        assert gini_mean(PositiveSample([1.0, 4.0]), ExponentPair(1.5, -1.5)) == 2.0
        assert_within_ulps(
            gini_mean(PositiveSample([1.0, 2.0]), ExponentPair(2.0, 0.0)), SQRT_2_5, 2
        )

    def test_symmetry_is_structural(self):
        s = PositiveSample([1.0, 3.0, 9.0], [2.0, 1.0, 1.0])
        assert gini_mean(s, ExponentPair(2.5, -1.0)) == gini_mean(
            s, ExponentPair(-1.0, 2.5)
        )

    def test_uniform_collapse_exact_at_extremes(self):
        for c in (1e-300, 1.0, 1e300):
            s = PositiveSample([c, c, c], [1.0, 7.0, 0.25])
            for pair in (ExponentPair(80.0, -3.0), ExponentPair(0.0, 0.0)):
                assert gini_mean(s, pair) == c

    @given(values=values_strategy, p=exponent_strategy, q=exponent_strategy)
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, values, p, q):
        s = PositiveSample(values)
        g = gini_mean(s, ExponentPair(p, q))
        assert s.min_value <= g <= s.max_value
        assert math.isfinite(g)

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        pairs = [(1.0, 0.0), (2.0, 1.0), (3.0, -3.0), (7.5, 0.5), (0.5, 0.5)]
        for _ in range(30):
            s = random_sample(rng)
            for lam in (1e-100, 1.0, 1e100):
                scaled = PositiveSample(lam * s.values, s.weights)
                for p, q in pairs:
                    a = gini_mean(scaled, ExponentPair(p, q))
                    b = lam * gini_mean(s, ExponentPair(p, q))
                    assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            s = random_sample(rng, n_max=32)
            # ties: a repeated mass with other weights, and repeated rows
            values = np.concatenate([s.values, s.values[:3], s.values[:2]])
            weights = np.concatenate([s.weights, 3.0 * s.weights[:3], s.weights[:2]])
            s = PositiveSample(values, weights)
            perm = rng.permutation(s.n)
            shuffled = PositiveSample(s.values[perm], s.weights[perm])
            for p, q in ((2.0, 1.0), (10.0, -4.0), (0.3, 0.3)):
                assert gini_mean(s, ExponentPair(p, q)) == gini_mean(
                    shuffled, ExponentPair(p, q)
                )

    def test_repetition_matches_integer_weights(self):
        values = [2.0, 5.0, 7.0]
        weights = [3.0, 1.0, 2.0]
        expanded = [2.0, 2.0, 2.0, 5.0, 7.0, 7.0]
        for p, q in ((1.0, 0.0), (2.0, 1.0), (4.0, -2.0), (1.5, 1.5)):
            a = gini_mean(PositiveSample(values, weights), ExponentPair(p, q))
            b = gini_mean(PositiveSample(expanded), ExponentPair(p, q))
            assert a == pytest.approx(b, rel=1e-12)

    def test_equal_parameter_branch_continuity(self):
        s = PositiveSample([0.5, 2.0, 7.0], [1.0, 2.0, 1.0])
        eps = 1e-6
        for m in (-2.0, 0.0, 1.3):
            across = gini_mean(s, ExponentPair(m + eps, m - eps))
            at = identical_parameter_gini(s, m)
            assert across == pytest.approx(at, rel=1e-8)

    def test_large_exponent_approaches_max(self):
        s = PositiveSample([1.0, 5.0])
        g = gini_mean(s, ExponentPair(10000.0, 0.0))
        assert g == pytest.approx(5.0, rel=1e-3)
        assert g < 5.0


class TestPowerMean:
    def test_reference_values(self):
        assert power_mean(PositiveSample([1.0, 3.0]), 1.0) == 2.0
        assert power_mean(PositiveSample([1.0, 4.0]), 0.0) == 2.0
        # harmonic mean of {1, 2} is 4/3
        assert power_mean(PositiveSample([1.0, 2.0]), -1.0) == 1.3333333333333333

    def test_weighted_arithmetic(self):
        # (1*1 + 3*2) / 4 = 7/4
        s = PositiveSample([1.0, 2.0], [1.0, 3.0])
        assert power_mean(s, 1.0) == pytest.approx(1.75, rel=1e-15)

    def test_power_mean_is_gini_with_zero(self):
        # identical code path, so identical bits, even at extremes
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_sample(rng, value_lo=1e-250, value_hi=1e250)
            for r in (-100.0, -2.0, 1e-12, 3.0, 100.0):
                assert power_mean(s, r) == gini_mean(s, ExponentPair(r, 0.0))

    def test_tiny_exponent_is_geometric(self):
        s = PositiveSample([1.0, 4.0], [1.0, 1.0])
        geo = identical_parameter_gini(s, 0.0)
        assert power_mean(s, 1e-12) == pytest.approx(geo, rel=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterDomainError):
            power_mean(PositiveSample([1.0, 2.0]), float("inf"))


class TestLehmerMean:
    def test_reference_values(self):
        assert_within_ulps(
            lehmer_mean(PositiveSample([1.0, 2.0, 3.0]), 2.0), SEVEN_THIRDS, 2
        )
        # Lehmer order 0 is the harmonic-type ratio S_0/S_{-1}: {1,2} -> 4/3
        assert lehmer_mean(PositiveSample([1.0, 2.0]), 0.0) == 1.3333333333333333

    def test_is_gini_with_shifted_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_sample(rng)
            for p in (-3.0, 0.0, 1.0, 6.5):
                assert lehmer_mean(s, p) == gini_mean(s, ExponentPair(p, p - 1.0))

    def test_uniform(self):
        assert lehmer_mean(PositiveSample([4.0, 4.0]), 3.0) == 4.0


class TestIdenticalParameterGini:
    def test_reference_values(self):
        assert_within_ulps(
            identical_parameter_gini(PositiveSample([1.0, 2.0]), 1.0), CBRT_4, 2
        )
        assert identical_parameter_gini(PositiveSample([1.0, 4.0]), 0.0) == 2.0

    def test_uniform(self):
        assert identical_parameter_gini(PositiveSample([7.0, 7.0]), 5.0) == 7.0
        # the common value at any finite p, as gini_mean gives it, even where
        # |p| * max|ln a| overflows and a non-uniform sample would raise
        for s in (PositiveSample([7.0, 7.0]), PositiveSample([1e-25])):
            for p in (1e307, -1e308):
                assert identical_parameter_gini(s, p) == s.values[0]
                assert gini_mean(s, ExponentPair(p, p)) == s.values[0]

    def test_matches_equal_pair_gini(self):
        s = PositiveSample([1.0, 3.0, 4.0])
        assert identical_parameter_gini(s, 2.0) == gini_mean(s, ExponentPair(2.0, 2.0))
        # bit for bit, errors included, at signed-zero, subnormal and huge p,
        # on uniform samples too; test_backends holds this under both backends
        rows = [row for row in merged_route_outcomes() if row[0] == "G(p,p)"]
        assert len(rows) == len(route_samples()) * len(EQUAL_PAIR_EXPONENTS)
        assert [row for row in rows if row[3] != row[4]] == []

    def test_monotone_in_p(self):
        s = PositiveSample([1.0, 2.0, 8.0])
        values = [identical_parameter_gini(s, p) for p in (-5.0, -1.0, 0.0, 1.0, 5.0)]
        assert values == sorted(values)


class TestPowerSumMemo:
    """The per-sample memo of power sums behind secant_slope and gini_mean."""

    @staticmethod
    def count_kernel_calls(monkeypatch) -> list[float]:
        exponents: list[float] = []
        kernel = _backend.exp_moments

        def counted(logs, log_weights, p, moments=True):
            exponents.append(p)
            return kernel(logs, log_weights, p, moments)

        monkeypatch.setattr(_backend, "exp_moments", counted)
        return exponents

    @staticmethod
    def record_kernel_requests(monkeypatch) -> list[tuple[float, bool]]:
        """Record ``(p, moments)`` of each kernel call."""
        requests: list[tuple[float, bool]] = []
        kernel = _backend.exp_moments

        def recorded(logs, log_weights, p, moments=True):
            requests.append((p, moments))
            return kernel(logs, log_weights, p, moments)

        monkeypatch.setattr(_backend, "exp_moments", recorded)
        return requests

    def test_secant_forms_log_sums_alone(self, monkeypatch):
        s = PositiveSample([1.0, 2.0, 8.0], [1.0, 0.5, 2.0])
        want = (log_power_sum(s, 2.0).log_sum - log_power_sum(s, 1.0).log_sum) / 1.0
        requests = self.record_kernel_requests(monkeypatch)
        assert secant_slope(s, 2.0, 1.0) == want
        assert requests == [(2.0, False), (1.0, False)]
        identical_parameter_gini(s, 2.0)
        assert requests[2:] == [(2.0, True)]

    def test_log_sum_then_tangent_costs_one_full_call(self, monkeypatch):
        s = PositiveSample([1.0, 2.0, 8.0], [1.0, 0.5, 2.0])
        full = log_power_sum(s, 1.0)
        requests = self.record_kernel_requests(monkeypatch)
        sums = _PowerSums(s)
        secant = sums.slope(1.0, 0.0)
        assert requests == [(1.0, False), (0.0, False)]
        assert sums.log_sum(1.0) == full.log_sum
        tangent = sums.slope(1.0, 1.0)
        assert requests[2:] == [(1.0, True)]
        # the tangent is log_power_sum's full moment1, and the log sum kept
        # before it still serves the secant
        assert tangent.hex() == full.moment1.hex()
        assert sums.log_sum(1.0) == full.log_sum
        assert sums.slope(1.0, 0.0) == secant
        assert len(requests) == 3
        assert secant == secant_slope(s, 1.0, 0.0)

    def test_tangent_keeps_no_entry(self, monkeypatch):
        s = PositiveSample([1.0, 3.0, 4.0], [0.5, 1.0, 2.0])
        full = log_power_sum(s, 2.0)
        requests = self.record_kernel_requests(monkeypatch)
        sums = _PowerSums(s)
        assert sums.slope(2.0, 2.0) == sums.slope(2.0, 2.0) == full.moment1
        assert sums.log_sum(2.0) == full.log_sum
        assert requests == [(2.0, True), (2.0, True), (2.0, False)]

    def test_signed_zeros_share_one_log_sum_entry(self, monkeypatch):
        s = PositiveSample([1.0, 3.0, 4.0], [0.5, 1.0, 2.0])
        full = log_power_sum(s, 0.0)
        requests = self.record_kernel_requests(monkeypatch)
        sums = _PowerSums(s)
        alone = sums.log_sum(-0.0)
        assert sums.log_sum(0.0) == alone
        assert sums.slope(0.0, 0.0) == full.moment1
        assert full.log_sum == alone
        assert requests == [(-0.0, False), (0.0, True)]

    def test_refused_exponent_is_not_kept_as_a_log_sum(self, monkeypatch):
        s = PositiveSample([1.0, 1000.0])
        requests = self.record_kernel_requests(monkeypatch)
        sums = _PowerSums(s)
        for _ in range(2):
            with pytest.raises(ParameterDomainError, match="too large"):
                sums.log_sum(1e308)
            with pytest.raises(ParameterDomainError, match="too large"):
                sums.slope(1e308, 0.0)
        assert requests == []
        assert sums.slope(1.0, 0.0) == secant_slope(s, 1.0, 0.0)
        assert requests == [(1.0, False), (0.0, False)] * 2

    def test_signed_zeros_share_one_entry(self, monkeypatch):
        s = PositiveSample([1.0, 3.0, 4.0], [0.5, 1.0, 2.0])
        exponents = self.count_kernel_calls(monkeypatch)
        sums = _PowerSums(s)
        first = sums.log_sum(0.0)
        assert sums.log_sum(-0.0) is first
        assert sums.gini(ExponentPair(1.0, -0.0)) == gini_mean(s, ExponentPair(1.0, 0.0))
        assert exponents == [0.0, 1.0, 1.0, 0.0]
        assert math.copysign(1.0, exponents[0]) == 1.0

    def test_signed_zeros_give_the_same_power_sum_bits(self):
        # why one entry may serve both: p = -0.0 and p = 0.0 tilt every term
        # to ln w_i, so only the recorded exponent differs
        for s in route_samples():
            plus, minus = log_power_sum(s, 0.0), log_power_sum(s, -0.0)
            assert [x.hex() for x in plus[1:]] == [x.hex() for x in minus[1:]]

    def test_each_exponent_is_formed_once(self, monkeypatch):
        s = PositiveSample([1.0, 2.0, 8.0])
        pairs = [ExponentPair(*pair) for pair in ((1, 0), (1.7, 1), (2, 1), (3, 2), (2, 0))]
        fresh = [gini_mean(s, pair) for pair in pairs]
        exponents = self.count_kernel_calls(monkeypatch)
        sums = _PowerSums(s)
        assert [sums.gini(pair) for pair in pairs] == fresh
        assert [sums.slope(pair.p, pair.q) for pair in pairs] == [
            secant_slope(s, pair.p, pair.q) for pair in pairs
        ]
        assert exponents[:5] == [1.0, 0.0, 1.7, 2.0, 3.0]
        assert len(exponents) == 5 + 2 * len(pairs)

    def test_slopes_in_one_frame_make_the_calls_of_one_slope_at_a_time(self, monkeypatch):
        # fresh: the kernel calls of a fresh memo per slope, and nothing kept;
        # kept: those of one memo; the same bits either way, and the secant
        # test inlined there agrees with reads()
        rng = np.random.default_rng(5)
        pairs = [(1.0, -1.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (2.0, 2.0),
                 (2.0 + 1e-9, 2.0), (3.0, 2.0), (0.0, -0.0), (1.0, 0.0)]
        for s in (*route_samples()[:40], random_sample(rng)):
            requests = self.record_kernel_requests(monkeypatch)
            one_at_a_time = [_PowerSums(s).slope(p, q) for p, q in pairs]
            want = list(requests)
            requests.clear()
            sums = _PowerSums(s)
            assert [x.hex() for x in sums.slopes(pairs, fresh=True)] == [
                x.hex() for x in one_at_a_time
            ]
            assert requests == want and 1.0 not in sums
            requests.clear()
            memo = _PowerSums(s)
            assert memo.slopes(pairs) == [memo.slope(p, q) for p, q in pairs]
            read = [e for p, q in pairs for e in memo.reads(ExponentPair(p, q))]
            assert [p for p, moments in requests if not moments] == list(dict.fromkeys(read))
            monkeypatch.undo()

    def test_refused_exponent_is_not_kept(self, monkeypatch):
        s = PositiveSample([1.0, 1000.0])
        exponents = self.count_kernel_calls(monkeypatch)
        sums = _PowerSums(s)
        for _ in range(2):
            with pytest.raises(ParameterDomainError, match="too large"):
                sums.gini(ExponentPair(1e308, 0.0))
        assert exponents == []
        assert sums.gini(ExponentPair(1.0, 0.0)) == gini_mean(s, ExponentPair(1.0, 0.0))


class TestExtremeValue:
    def test_exact(self):
        s = PositiveSample([3.0, 1.5, 9.25])
        assert extreme_value(s, "max") == 9.25
        assert extreme_value(s, "min") == 1.5

    def test_bad_selector(self):
        with pytest.raises(ParameterDomainError):
            extreme_value(PositiveSample([1.0]), "median")

    @pytest.mark.parametrize(
        "which", [np.array([]), np.array(["max"]), None], ids=["empty", "array", "None"]
    )
    def test_selector_that_is_no_str(self, which):
        # an array compares elementwise, so its truth value is no answer
        with pytest.raises(ParameterDomainError, match="^which must be 'max' or 'min', got "):
            extreme_value(PositiveSample([1.0, 2.0]), which)

    def test_means_bounded_by_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_sample(rng, value_lo=1e-200, value_hi=1e200)
            g = gini_mean(s, ExponentPair(60.0, -60.0))
            assert extreme_value(s, "min") <= g <= extreme_value(s, "max")


class TestStability:
    def test_extreme_magnitudes_and_exponents(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            s = PositiveSample(
                log_uniform(rng, 1e-300, 1e300, n), log_uniform(rng, 1e-3, 1e3, n)
            )
            p = float(rng.uniform(-100, 100))
            q = float(rng.uniform(-100, 100))
            g = gini_mean(s, ExponentPair(p, q))
            assert math.isfinite(g)
            assert s.min_value <= g <= s.max_value

    @pytest.mark.parametrize("p", [1e308, -1e308, 3e307])
    def test_overflowing_exponent_is_a_domain_error(self, p):
        # |p| * max|ln a| is not a double: refused, with no numpy warning
        s = PositiveSample([1.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError, match="too large"):
                log_power_sum(s, p)
            with pytest.raises(ParameterDomainError):
                identical_parameter_gini(s, p)
            with pytest.raises(ParameterDomainError):
                gini_mean(s, ExponentPair(p, 0.0))

    def test_largest_exponents_inside_the_domain(self):
        # ln 2 * 1e308 is still finite, so these evaluate
        s = PositiveSample([1.0, 2.0])
        assert log_power_sum(s, 1e308).moment1 == math.log(2.0)
        assert gini_mean(s, ExponentPair(1e308, 1e308)) == 2.0
        assert gini_mean(s, ExponentPair(-1e308, -1e308)) == 1.0

    def test_overflowing_differences_stay_exact(self):
        # p - q overflows: G(1e308, -1e308) of {1, 2} is sqrt(2)
        g = gini_mean(PositiveSample([1.0, 2.0]), ExponentPair(1e308, -1e308))
        assert_within_ulps(g, math.sqrt(2.0), 1)
        # ln S_p - ln S_q overflows: G of {e, e^2} is e^1.5
        s = PositiveSample([math.e, 7.38905609893065])
        assert gini_mean(s, ExponentPair(8e307, -8e307)) == 4.4816890703380645

    def test_halved_secant_keeps_the_plain_secant_bits(self):
        rng = np.random.default_rng(91)
        for _ in range(40):
            s = random_sample(rng, value_lo=1e-250, value_hi=1e250)
            for _ in range(5):
                p, q = (float(x) for x in rng.uniform(-60.0, 60.0, 2))
                plain = (log_power_sum(s, p).log_sum - log_power_sum(s, q).log_sum) / (
                    p - q
                )
                assert secant_slope(s, p, q) == plain
