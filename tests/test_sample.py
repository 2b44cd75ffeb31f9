"""Input type validation and canonicalization."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ginikit import audit, cli, means, mwd
from ginikit._kernels_py import VECTOR_MIN_N
from ginikit.errors import DataError, ParameterDomainError
from ginikit.oracle import oracle_gini
from ginikit.sample import ExponentPair, PositiveSample

from helpers import batch_mismatches, batch_of, batch_runs, env_importing_from, sample_bits


class TestPositiveSample:
    def test_basic_construction(self):
        s = PositiveSample([1.0, 2.0, 3.0])
        assert s.n == 3
        assert len(s) == 3
        assert list(s.weights) == [1.0, 1.0, 1.0]
        assert s.min_value == 1.0
        assert s.max_value == 3.0
        assert not s.is_uniform

    def test_summation_order_is_private_and_frozen(self):
        values = [8.0, 2.0, 8.0, 0.5]
        weights = [1.0, 3.0, 0.25, 2.0]
        s = PositiveSample(values, weights)
        # the public arrays keep the caller's order
        assert list(s.values) == values
        # the private copy is sorted by (ln a, ln w), C-contiguous, read-only
        assert list(s._sorted_log_values) == [math.log(v) for v in (0.5, 2.0, 8.0, 8.0)]
        assert list(s._sorted_log_weights) == [math.log(w) for w in (2.0, 3.0, 0.25, 1.0)]
        for arr in (s._sorted_log_values, s._sorted_log_weights):
            assert arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize(
        "values", [[8.0, 2.0, 0.5], [1e-300, 3.0], [2.0, 3.0], [0.25, 0.5], [1.0]]
    )
    def test_largest_abs_log_is_stored_as_a_float(self, values):
        s = PositiveSample(values)
        assert type(s._max_abs_log_value) is float
        assert s._max_abs_log_value == max(abs(float(x)) for x in np.log(s.values))

    def test_uniform_detection(self):
        assert PositiveSample([5.0, 5.0, 5.0]).is_uniform
        assert PositiveSample([5.0]).is_uniform
        # uneven weights do not break uniformity of equal values
        assert PositiveSample([5.0, 5.0], [1.0, 9.0]).is_uniform
        assert not PositiveSample([5.0, 5.0000001]).is_uniform

    def test_subnormal_and_huge_values_accepted(self):
        s = PositiveSample([5e-324, 1e300])
        assert s.min_value == 5e-324
        assert math.isfinite(s._sorted_log_values[0])

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.0, 1.0],
            [-1.0, 2.0],
            [float("nan")],
            [float("inf")],
            [[1.0, 2.0]],
        ],
    )
    def test_bad_values_rejected(self, values):
        with pytest.raises(DataError):
            PositiveSample(values)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.0], [1.0, -2.0], [1.0, float("nan")]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(DataError):
            PositiveSample([1.0, 2.0], weights)

    def test_non_numeric_rejected(self):
        with pytest.raises(DataError):
            PositiveSample(["a", "b"])

    @pytest.mark.parametrize(
        "values,weights,message",
        [
            # a non-finite entry is named before a non-positive one, and
            # the values before the weights, before the lengths
            ([-1.0, float("nan")], None, "values must be finite"),
            ([float("-inf"), 2.0], None, "values must be finite"),
            ([-1.0, float("inf")], None, "values must be finite"),
            ([0.0, 2.0], None, "values must be strictly positive"),
            ([-0.0, 2.0], None, "values must be strictly positive"),
            ([1.0, 2.0], [-1.0, float("nan")], "weights must be finite"),
            ([1.0, 2.0], [-0.0, 1.0], "weights must be strictly positive"),
            ([0.0, 2.0], [float("nan"), 1.0], "values must be strictly positive"),
            ([1.0, 2.0], [float("nan")], "weights must be finite"),
            ([1.0, 2.0], [1.0], "weights length 1 does not match values length 2"),
        ],
    )
    def test_first_failing_check_is_the_one_reported(self, values, weights, message):
        with pytest.raises(DataError) as info:
            PositiveSample(values, weights)
        assert str(info.value).startswith(message)

    def test_range_and_frozen_arrays(self):
        s = PositiveSample(np.array([4.0, 0.5, 4.0, 2.0]), [1.0, 2.0, 3.0, 4.0])
        assert (s.min_value, s.max_value) == (0.5, 4.0)
        assert type(s.min_value) is float and type(s.max_value) is float
        assert not s.is_uniform
        for arr in (s.values, s.weights, s._sorted_log_values, s._sorted_log_weights):
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
        # a read-only float64 array is used as it is; an int array is converted
        frozen = np.array([1.0, 3.0])
        frozen.flags.writeable = False
        assert PositiveSample(frozen).values is frozen
        ints = np.array([1, 3])
        converted = PositiveSample(ints).values
        assert converted.dtype == np.float64 and list(converted) == [1.0, 3.0]
        assert ints.flags.writeable

    def test_immutable(self):
        s = PositiveSample([1.0, 2.0])
        with pytest.raises(AttributeError):
            s.values = np.array([9.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_input_array_not_aliased(self):
        source = np.array([1.0, 2.0])
        s = PositiveSample(source)
        source[0] = 99.0
        assert s.values[0] == 1.0 or s.values.base is not source


class TestSampleBatch:
    """``_sample_batch`` logs, sorts and ranges many samples at once; each
    must be, slot for slot, the sample ``PositiveSample`` builds alone."""

    @pytest.mark.parametrize("seed", range(40))
    def test_batch_gives_the_bits_of_one_at_a_time(self, seed):
        assert batch_mismatches(batch_runs(np.random.default_rng(seed))) == []

    def test_runs_of_every_kind_are_drawn(self):
        # the cases above cover runs of length 1, both sides of
        # VECTOR_MIN_N, uniform runs and ln a ties that ln w breaks
        runs = [run for seed in range(40) for run in batch_runs(np.random.default_rng(seed))]
        lengths = {values.size for values, _ in runs}
        assert {1, VECTOR_MIN_N - 1, VECTOR_MIN_N, VECTOR_MIN_N + 1} <= lengths
        assert any(np.all(values == values[0]) and values.size > 1 for values, _ in runs)
        assert any(
            np.unique(values).size > np.unique(np.log(values)).size for values, _ in runs
        )

    def test_random_samples_keep_the_stream_and_the_bits(self):
        # verify --random draws n, then the values, then the weights, sample
        # by sample; its batch must give the samples built one at a time
        for seed in range(20):
            rng = np.random.default_rng(seed)
            alone = []
            for _ in range(30):
                n = int(rng.integers(2, 17))
                values = 10.0 ** rng.uniform(-3.0, 3.0, n)
                alone.append(PositiveSample(values, rng.uniform(0.5, 2.0, n)))
            batch = cli._random_samples(seed, 30)
            assert [sample_bits(s) for s in batch] == [sample_bits(s) for s in alone]

    def test_samples_are_frozen_views_of_shared_buffers(self):
        first, second = cli._random_samples(5, 2)
        for name in ("values", "weights", "_sorted_log_values", "_sorted_log_weights"):
            a, b = getattr(first, name), getattr(second, name)
            assert a.base is not None and a.base is b.base
            for view in (a, b, a.base):
                assert not view.flags.writeable
            with pytest.raises(ValueError):
                a.setflags(write=True)
        with pytest.raises(AttributeError):
            first.values = np.array([1.0])

    @pytest.mark.parametrize(
        "values,weights",
        [
            ([1.0, float("nan")], [1.0, 1.0]),
            ([float("inf"), 2.0], [1.0, 1.0]),
            ([-1.0, float("inf")], [1.0, 1.0]),
            ([0.0, 2.0], [1.0, 1.0]),
            ([-0.0, 2.0], [1.0, 1.0]),
            ([-1.0, 2.0], [float("nan"), 1.0]),
            ([1.0, 2.0], [-1.0, float("nan")]),
            ([1.0, 2.0], [float("-inf"), 1.0]),
            ([1.0, 2.0], [0.0, 1.0]),
            ([1.0], [-0.0]),
        ],
    )
    def test_bad_run_in_the_middle_raises_the_single_sample_error(self, values, weights):
        with pytest.raises(DataError) as alone:
            PositiveSample(values, weights)
        runs = [
            (np.array([1.0, 2.0]), np.array([1.0, 1.0])),
            (np.array(values), np.array(weights)),
            (np.array([3.0]), np.array([-1.0])),  # bad too, but later
        ]
        with warnings.catch_warnings():
            # the checks come before the logs, so no bad entry is logged
            warnings.simplefilter("error")
            with pytest.raises(DataError) as batched:
                batch_of(runs)
        assert str(batched.value) == str(alone.value)

    @pytest.mark.parametrize("seed", range(10))
    def test_permuted_rows_give_the_same_bits(self, seed):
        # one sort fixes each sample's summation order, so the order of its
        # rows moves no bit of anything but the public arrays
        rng = np.random.default_rng(seed)
        runs = batch_runs(rng)
        permuted = [(v[order], w[order]) for v, w in runs for order in [rng.permutation(v.size)]]

        def unordered_bits(sample):
            # every slot but the two public arrays, which keep the rows' order
            arrays, *rest = sample_bits(sample)
            return arrays[2:], rest

        pairs = [ExponentPair(2.0, 1.0), ExponentPair(0.5, -3.0), ExponentPair(1.0, 1.0)]
        for built in (batch_of, lambda runs: [PositiveSample(v, w) for v, w in runs]):
            for s, t in zip(built(runs), built(permuted)):
                assert unordered_bits(s) == unordered_bits(t)
                assert [means.gini_mean(s, pair) for pair in pairs] == [
                    means.gini_mean(t, pair) for pair in pairs
                ]

    def test_both_backends(self, compiled_src):
        # building a sample calls no kernel, so its bits are the same under
        # both; only the loop lists belong to the pure backend
        tests_dir = str(Path(__file__).resolve().parent)
        script = (
            "import json, ginikit, helpers; print(ginikit.backend_name()); "
            "print(json.dumps(helpers.batch_sample_outcomes()))"
        )
        runs = {}
        for pure, backend in (("0", "compiled"), ("1", "python")):
            env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
            env["PYTHONPATH"] = os.pathsep.join((tests_dir, env["PYTHONPATH"]))
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert done.returncode == 0, done.stderr
            name, outcome = done.stdout.splitlines()
            assert name == backend
            runs[backend] = json.loads(outcome)
            assert runs[backend]["mismatches"] == []
        assert runs["compiled"]["with_lists"] == 0
        assert 0 < runs["python"]["with_lists"] < runs["python"]["samples"]
        for key in ("samples", "digest"):
            assert runs["compiled"][key] == runs["python"][key]


class TestExponentPair:
    def test_canonical_order(self):
        pair = ExponentPair(0.0, 2.0)
        assert (pair.p, pair.q) == (2.0, 0.0)
        assert pair == ExponentPair(2.0, 0.0)

    def test_gap(self):
        assert ExponentPair(3.0, -1.0).gap == 4.0
        assert ExponentPair(1.5, 1.5).gap == 0.0

    @pytest.mark.parametrize("p,q", [(float("inf"), 0.0), (0.0, float("-inf")), (float("nan"), 1.0)])
    def test_non_finite_rejected(self, p, q):
        with pytest.raises(ParameterDomainError):
            ExponentPair(p, q)

    def test_non_numeric_rejected(self):
        with pytest.raises(ParameterDomainError):
            ExponentPair("a", 1.0)

    @pytest.mark.parametrize(
        "p", ["1", b"1", np.array(1.0), np.array([1.0])], ids=["str", "bytes", "0-d", "1-d"]
    )
    def test_only_real_numbers_are_exponents(self, p):
        # float() would take each of these; an exponent must be a numbers.Real
        with pytest.raises(ParameterDomainError, match="^exponents must be real numbers$"):
            ExponentPair(p, 0.0)
        with pytest.raises(ParameterDomainError, match="^exponents must be real numbers$"):
            ExponentPair(0.0, p)

    def test_integer_coercion(self):
        pair = ExponentPair(2, 1)
        assert isinstance(pair.p, float)
        assert pair.p == 2.0

    def test_repr(self):
        # the dataclass repr, in canonical order, with the coerced floats
        assert repr(ExponentPair(0, 2)) == "ExponentPair(p=2.0, q=0.0)"
        assert repr(ExponentPair(-0.0, 5e-324)) == "ExponentPair(p=5e-324, q=-0.0)"


BIG = 10**400  # an int past the double range
SAMPLE = PositiveSample([1.0, 2.0])
DATASET = mwd.MWDataset(masses=[1.0, 2.0], abundances=[1.0, 1.0])
PAIR = ExponentPair(1.0, 0.0)

#: Every public entry point that takes a number, called with BIG in one slot.
HUGE_INT_CALLS = {
    "ExponentPair.p": (lambda: ExponentPair(BIG, 0), ParameterDomainError),
    "ExponentPair.q": (lambda: ExponentPair(0, -BIG), ParameterDomainError),
    "PositiveSample.values": (lambda: PositiveSample([1.0, BIG]), DataError),
    "PositiveSample.weights": (lambda: PositiveSample([1.0], [BIG]), DataError),
    "MWDataset.masses": (lambda: mwd.MWDataset(masses=[BIG], abundances=[1.0]), DataError),
    "power_mean": (lambda: means.power_mean(SAMPLE, BIG), ParameterDomainError),
    "lehmer_mean": (lambda: means.lehmer_mean(SAMPLE, -BIG), ParameterDomainError),
    "identical_parameter_gini": (
        lambda: means.identical_parameter_gini(SAMPLE, BIG), ParameterDomainError
    ),
    "log_power_sum": (lambda: means.log_power_sum(SAMPLE, BIG), ParameterDomainError),
    "secant_slope": (lambda: means.secant_slope(SAMPLE, 1.0, BIG), ParameterDomainError),
    "convexity_gap": (lambda: audit.convexity_gap(SAMPLE, BIG), ParameterDomainError),
    "check_power_mean_bound": (
        lambda: audit.check_power_mean_bound(SAMPLE, BIG, 1.0, 2.0), ParameterDomainError
    ),
    "check_power_mean_bound.q": (
        lambda: audit.check_power_mean_bound(SAMPLE, 1.0, BIG, 2.0), ParameterDomainError
    ),
    # the oracle's one setting, its working precision
    "OracleConfig.precision_digits": (
        lambda: oracle_gini(SAMPLE, PAIR, precision_digits=BIG), ParameterDomainError
    ),
    "OracleConfig.precision_digits=inf": (
        lambda: oracle_gini(SAMPLE, PAIR, precision_digits=float("inf")), ParameterDomainError
    ),
    "OracleConfig.precision_digits=nan": (
        lambda: oracle_gini(SAMPLE, PAIR, precision_digits=float("nan")), ParameterDomainError
    ),
    "viscosity_average": (lambda: mwd.viscosity_average(DATASET, BIG), ParameterDomainError),
    "hydrodynamic_mean": (lambda: mwd.hydrodynamic_mean(DATASET, BIG), ParameterDomainError),
    "sedimentation_mean": (lambda: mwd.sedimentation_mean(DATASET, BIG), ParameterDomainError),
    "polydispersity.s": (lambda: mwd.polydispersity(DATASET, s=BIG), ParameterDomainError),
    "polydispersity.custom": (
        lambda: mwd.polydispersity(DATASET, custom=[(BIG, 0.0)]), ParameterDomainError
    ),
    "generate_flory.m0": (lambda: mwd.generate_flory(BIG, 0.5), ParameterDomainError),
    "generate_flory.x": (lambda: mwd.generate_flory(28.0, BIG), ParameterDomainError),
    "generate_flory.tail_tol": (
        lambda: mwd.generate_flory(28.0, 0.5, BIG), ParameterDomainError
    ),
    "generate_poisson.m0": (lambda: mwd.generate_poisson(-BIG, 3.0), ParameterDomainError),
    "generate_poisson.mean_degree": (
        lambda: mwd.generate_poisson(28.0, BIG), ParameterDomainError
    ),
    "generate_lognormal.median": (
        lambda: mwd.generate_lognormal(BIG, 0.5, 10), ParameterDomainError
    ),
    "generate_lognormal.sigma": (
        lambda: mwd.generate_lognormal(1e4, BIG, 10), ParameterDomainError
    ),
    "generate_lognormal.n_points": (
        lambda: mwd.generate_lognormal(1e4, 0.5, BIG), ParameterDomainError
    ),
    "generate_lognormal.n_points=inf": (
        lambda: mwd.generate_lognormal(1e4, 0.5, float("inf")), ParameterDomainError
    ),
    "generate_lognormal.n_points=nan": (
        lambda: mwd.generate_lognormal(1e4, 0.5, float("nan")), ParameterDomainError
    ),
}


@pytest.mark.parametrize("call, error", HUGE_INT_CALLS.values(), ids=list(HUGE_INT_CALLS))
def test_numbers_past_the_double_range_are_package_errors(call, error):
    with pytest.raises(error) as info:
        call()
    # the message names the problem without spelling out 401 digits
    assert str(BIG) not in str(info.value)


@pytest.mark.parametrize("number", [np.int64(1), np.float32(1.0)], ids=["int64", "float32"])
def test_numpy_scalars_pass_the_number_checks(number):
    assert mwd.viscosity_average(DATASET, number) == mwd.viscosity_average(DATASET, 1.0)


HUGE = 10**5000  # past Python's 4,300-digit limit: str() and repr() raise on it

#: Entry points that put a number into their error message, called with HUGE.
HUGE_DIGIT_CALLS = {
    "check_power_mean_bound.q": (
        lambda: audit.check_power_mean_bound(SAMPLE, 1.0, HUGE, 2.0), ParameterDomainError
    ),
    "OracleConfig.precision_digits": (
        lambda: oracle_gini(SAMPLE, PAIR, precision_digits=HUGE), ParameterDomainError
    ),
}


@pytest.mark.parametrize("call, error", HUGE_DIGIT_CALLS.values(), ids=list(HUGE_DIGIT_CALLS))
def test_ints_past_the_digit_limit_are_package_errors(call, error):
    # formatting HUGE into the message would raise a bare ValueError instead
    with pytest.raises(error, match="an integer too large for a double"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: means.power_mean(SAMPLE, Fraction(HUGE)),
        lambda: mwd.generate_flory(Fraction(1, HUGE), 0.5),
    ],
    ids=["power_mean.r", "generate_flory.m0"],
)
def test_fractions_past_the_digit_limit_are_package_errors(call):
    # repr of a Fraction made of HUGE raises a bare ValueError, as HUGE's does
    with pytest.raises(ParameterDomainError, match="got a Fraction too long to show"):
        call()
