"""Kernel backend selection and compiled/pure bit-identity."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ginikit import _backend, _kernels_py, backend_name, gini_mean
from ginikit.sample import ExponentPair, PositiveSample

from helpers import (
    compiled_kernel_file,
    env_importing_from,
    random_sample,
    reference_exp_moments,
)


@pytest.fixture(scope="module")
def compiled_kernels(compiled_src):
    """The compiled kernel module, loaded from the built copy of the package."""
    spec = importlib.util.spec_from_file_location(
        "ginikit._kernels", compiled_kernel_file(compiled_src)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Sizes on both sides of the pure kernel's switch to its numpy path.
VECTOR_N = _kernels_py.VECTOR_MIN_N
SIZES_ACROSS_SWITCH = (1, VECTOR_N - 1, VECTOR_N, 4096, 27_618)


def pipeline_triple(la, lw, p):
    """The (logs, log_weights, p) triple the mean pipeline hands the kernel.

    ``PositiveSample`` sorts its logs by (ln a, ln w) once, and
    ``log_power_sum`` passes them in that order.
    """
    order = np.lexsort((lw, la))
    return la[order], lw[order], p


def kernel_case(rng, n, p_max=60.0):
    """One (logs, log_weights, p) triple like the mean pipeline builds."""
    la = np.log(rng.uniform(1e-3, 1e3, size=n))
    lw = np.log(rng.uniform(0.5, 2.0, size=n))
    return pipeline_triple(la, lw, rng.uniform(-p_max, p_max))


def extreme_case(rng, n):
    """A pipeline triple with logs in [-700, 700] and |p| up to 100."""
    la = rng.uniform(-700.0, 700.0, size=n)
    lw = rng.uniform(-5.0, 5.0, size=n)
    return pipeline_triple(la, lw, rng.uniform(-100.0, 100.0))


def reference(la, lw, p):
    """The kernel result the three-pass reference gives on a tilt formed as
    ``log_power_sum`` formed it before the kernel did: ``(shift, total,
    mean, variance)``."""
    t = p * np.asarray(la, dtype=np.float64) + np.asarray(lw, dtype=np.float64)
    shift = float(t.max())
    return (shift, *reference_exp_moments(t, la, shift))


def bits(result):
    """The exact bit patterns of a kernel result; tells -0.0 from +0.0."""
    return struct.pack(f"<{len(result)}d", *result)


def bits_nan_as_nan(result):
    """``bits`` of each field, with every NaN compared as NaN whatever its
    sign and payload."""
    return ["nan" if math.isnan(x) else bits((x,)) for x in result]


def reference_first_largest(la, lw, p):
    """``reference`` with the shift the kernels take, the first largest tilt
    as Python's ``max`` picks it: numpy's ``max`` would return a NaN tilt
    wherever it stands, where the kernels skip one after the first term."""
    t = [p * a + w for a, w in zip(la, lw)]
    shift = max(t)
    return (shift, *reference_exp_moments(t, la, shift))


# Each corpus maps a size to a few (logs, log_weights, p) triples.  The pure
# kernel's paths are held to the reference on each, and the compiled kernel
# to the pure one.


def random_corpus(n):
    rng = np.random.default_rng(n)
    return [kernel_case(rng, n) for _ in range(3)]


def spread_weights_corpus(n):
    # |p| <= 3, as for the molar-mass averages: many weights of similar
    # size, so the rounding of each product u * d * d reaches the variance
    rng = np.random.default_rng(97 + n)
    return [kernel_case(rng, n, p_max=3.0) for _ in range(3)]


def extreme_magnitudes_corpus(n):
    rng = np.random.default_rng(31 + n)
    return [extreme_case(rng, n) for _ in range(3)]


def all_equal_logs_corpus(n):
    return [(np.full(n, 2.5), np.zeros(n), 1.5)]


#: Equal terms in the libm corpus: a power of two past the switch.
LIBM_N = 1 << VECTOR_N.bit_length()


def libm_exp_corpus(n):
    # one term at the shift (weight 1, log 0), then n - 1 equal terms of log 1
    # whose weights are exp(x) for x in [-700, 0)
    la = np.concatenate(([0.0], np.ones(n - 1)))
    xs = np.random.default_rng(3).uniform(-700.0, 0.0, 200).tolist()
    return [(la, np.concatenate(([0.0], np.full(n - 1, x))), 0.0) for x in xs]


def cancelling_sum_corpus(n):
    # logs 1, then terms too small to move it, then -1, all of weight 1: the
    # first-moment sum ends at exactly 0, so the mean is the compensation
    # total alone and the order in which it was accumulated shows in its
    # last bits
    rng = np.random.default_rng(n)
    tiny = rng.uniform(0.0, 1e-16, n - 2) * rng.choice([1.0, 1e-8], n - 2)
    return [(np.concatenate(([1.0], tiny, [-1.0])), np.zeros(n), 0.0)]


def signed_zero_terms_corpus(n):
    # every log is -0.0, so every product u * log is -0.0 (and half the
    # weights underflow to +0.0); the tilt is -800 or +0.0, never -0.0
    lw = np.zeros(n)
    lw[: n // 2] = -800.0
    return [(np.full(n, -0.0), lw, 0.0)]


def underflowing_weights_corpus(n):
    # terms 800 below the shift get weight exp(-800) = +0.0, so the weight
    # and variance sums add zeros, to a zero running sum before the first
    # term at the shift and to a positive one after it
    rng = np.random.default_rng(53 + n)
    la = np.sort(rng.uniform(-3.0, 3.0, n))
    all_but_one = np.full(n, -800.0)
    all_but_one[n // 2] = 0.0
    alternate = np.where(np.arange(n) % 2 == 0, -800.0, 0.0)
    return [(la, all_but_one, 0.0), (la, alternate, 0.0), (la, alternate, 1e-3)]


def growing_weights_corpus(n):
    # each weight is about 3 times the one before, so more than all before
    # it together: every step of the weight sum adds a term larger than its
    # running sum, which takes the second Neumaier branch, and the errors of
    # those steps add up to the last bit of the total
    rng = np.random.default_rng(83 + n)
    return [
        (
            np.sort(rng.uniform(-1.0, 1.0, n)),
            np.cumsum(rng.uniform(0.9, 1.1, n) * math.log(3.0)),
            0.0,
        )
        for _ in range(20)
    ]


def tied_addends_corpus(n):
    # every term lies at the shift, so every weight is exp(0) = 1.0 exactly:
    # the weight sum's second step adds 1.0 to 1.0.  With logs -1 then +1,
    # the mean of an even count is exactly 0, so every variance term is 1.0
    # and the variance sum's second step is a tie too; with one log for all
    # terms, every variance term and every running sum is +0.0
    signs = np.where(np.arange(n) < n // 2, -1.0, 1.0)
    return [(signs, np.zeros(n), 0.0), (np.full(n, 0.75), np.zeros(n), 0.0)]


def negative_zero_log_corpus(n):
    # one log of -0.0 among others: its first-moment addend is u * -0.0,
    # a -0.0, and its tilt p * -0.0 + 0.0 is +0.0
    rng = np.random.default_rng(71 + n)
    la = np.sort(rng.uniform(-2.0, 2.0, n))
    la[n // 2] = -0.0
    return [(la, np.zeros(n), p) for p in (0.0, 1.0, -2.5)]


CORPORA = {
    "random": (random_corpus, SIZES_ACROSS_SWITCH),
    "spread_weights": (spread_weights_corpus, SIZES_ACROSS_SWITCH),
    "extreme_magnitudes": (extreme_magnitudes_corpus, SIZES_ACROSS_SWITCH),
    "all_equal_logs": (all_equal_logs_corpus, SIZES_ACROSS_SWITCH),
    "libm_exp": (libm_exp_corpus, (LIBM_N + 1,)),
    "cancelling_sum": (cancelling_sum_corpus, SIZES_ACROSS_SWITCH[2:]),
    "signed_zero_terms": (signed_zero_terms_corpus, (VECTOR_N, 4096)),
    "underflowing_weights": (underflowing_weights_corpus, (2, 9, *SIZES_ACROSS_SWITCH[1:])),
    "growing_weights": (growing_weights_corpus, (2, 9, 30, *SIZES_ACROSS_SWITCH[1:4])),
    "tied_addends": (tied_addends_corpus, (1, 2, 16, *SIZES_ACROSS_SWITCH[1:])),
    "negative_zero_log": (negative_zero_log_corpus, (1, 5, *SIZES_ACROSS_SWITCH[1:])),
}
CORPUS_SIZES = [(name, n) for name, (_, sizes) in CORPORA.items() for n in sizes]

INF = math.inf
NAN = math.nan
#: Direct kernel calls on logs no sample holds: infinities and NaNs in the
#: logs or log weights, first, inside or last, with exponents that make
#: them infinite or NaN tilts, weights and products, and logs of 1e308,
#: whose first-moment or variance addends overflow to +inf.  All are
#: loop-sized.
NON_FINITE_CASES = [
    ([0.5, 1.0, INF], [0.0, 0.0, 0.0], 1.0),
    ([0.5, 1.0, INF], [0.0, 0.0, 0.0], 0.0),
    ([0.5, 1.0, INF], [0.0, 0.0, 0.0], -1.0),
    ([-INF, 0.5, 1.0], [0.0, 0.0, 0.0], 1.0),
    ([-INF, 0.5, 1.0], [0.0, 0.0, 0.0], 0.0),
    ([-INF, 0.5, 1.0], [0.0, 0.0, 0.0], -1.0),
    ([-INF, INF], [0.0, 0.0], 2.0),
    ([INF, INF], [0.0, 0.0], 1.0),
    ([-INF, -INF], [0.0, 0.0], 1.0),
    ([NAN, 0.5, 1.0], [0.0, 0.0, 0.0], 1.0),
    ([0.5, NAN, 1.0], [0.0, 0.0, 0.0], 1.0),
    ([0.5, 1.0, NAN], [0.0, 0.0, 0.0], 0.0),
    ([0.5, 1.0, 2.0], [0.0, NAN, 0.0], 1.0),
    ([0.5, 1.0, 2.0], [-INF, 0.0, 0.0], 1.0),
    ([0.5, 1.0, 2.0], [0.0, INF, 0.0], 1.0),
    ([-0.0, INF, NAN], [0.0, 0.0, 0.0], 0.0),
    ([-1e308, 1e308], [0.0, 0.0], 0.0),
    ([1e308, 1e308, 1e308], [0.0, 0.0, 0.0], 0.0),
    ([-0.0], [0.0], 3.0),
    ([-0.0, -0.0], [-800.0, 0.0], 0.0),
]


class TestSelection:
    def test_backend_name_matches_module(self):
        assert backend_name() == _backend.BACKEND
        assert backend_name() in ("compiled", "python")

    def test_available_backends_always_has_python(self):
        impls = _backend.available_backends()
        assert "python" in impls
        assert callable(impls["python"].exp_moments)

    def test_compiled_preferred_by_default(self, compiled_src):
        env = env_importing_from(compiled_src)
        env.pop("GINIKIT_PURE", None)
        out = subprocess.run(
            [sys.executable, "-c", "import ginikit; print(ginikit.backend_name())"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.stdout.strip() == "compiled"

    def test_env_var_forces_pure(self):
        env = dict(os.environ, GINIKIT_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", "import ginikit; print(ginikit.backend_name())"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.stdout.strip() == "python"

    def test_env_var_zero_means_default(self):
        env = dict(os.environ, GINIKIT_PURE="0")
        out = subprocess.run(
            [sys.executable, "-c", "import ginikit; print(ginikit.backend_name())"],
            capture_output=True,
            text=True,
            env=env,
        )
        expected = "compiled" if "compiled" in _backend.available_backends() else "python"
        assert out.stdout.strip() == expected


class TestBitIdentity:
    def assert_backends_agree(self, compiled, la, lw, p):
        want = bits(reference(la, lw, p))
        assert bits(_kernels_py.exp_moments(la, lw, p)) == want
        assert bits(compiled(la, lw, p)) == want

    def test_kernel_outputs_identical(self, compiled_kernels):
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(1, 4 * VECTOR_N))
            self.assert_backends_agree(compiled_kernels.exp_moments, *kernel_case(rng, n))
        for n in SIZES_ACROSS_SWITCH:
            self.assert_backends_agree(compiled_kernels.exp_moments, *kernel_case(rng, n))

    def test_kernel_outputs_identical_extreme_magnitudes(self, compiled_kernels):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 4 * VECTOR_N))
            self.assert_backends_agree(compiled_kernels.exp_moments, *extreme_case(rng, n))

    @pytest.mark.parametrize("corpus,n", CORPUS_SIZES)
    def test_corpus_identical(self, compiled_kernels, corpus, n):
        for case in CORPORA[corpus][0](n):
            self.assert_backends_agree(compiled_kernels.exp_moments, *case)

    @pytest.mark.parametrize("la,lw,p", NON_FINITE_CASES)
    def test_non_finite_logs(self, compiled_kernels, la, lw, p):
        want = bits_nan_as_nan(reference_first_largest(la, lw, p))
        got = compiled_kernels.exp_moments(np.array(la), np.array(lw), p)
        assert bits_nan_as_nan(got) == want
        assert bits_nan_as_nan(_kernels_py.exp_moments(la, lw, p)) == want

    def test_full_pipeline_identical(self, compiled_kernels, monkeypatch):
        # the mean evaluator looks the kernel up through the backend module,
        # so swapping it there re-routes the whole pipeline
        rng = np.random.default_rng(23)
        cases = []
        monkeypatch.setattr(_backend, "exp_moments", compiled_kernels.exp_moments)
        for _ in range(150):
            s = random_sample(rng)
            pair = ExponentPair(rng.uniform(-20, 20), rng.uniform(-20, 20))
            cases.append((s, pair, gini_mean(s, pair)))
        monkeypatch.setattr(_backend, "exp_moments", _kernels_py.exp_moments)
        for s, pair, reference_value in cases:
            assert gini_mean(s, pair) == reference_value

    def test_merged_routes_identical(self, compiled_src):
        # identical_parameter_gini is gini_mean on the equal pair and
        # check_power_mean_bound is check_monotonicity on the bracketing
        # order, to the bit and error for error, whichever backend runs
        script = (
            "import json, ginikit, helpers; print(ginikit.backend_name()); "
            "print(json.dumps(helpers.merged_route_outcomes()))"
        )
        tests_dir = str(Path(__file__).resolve().parent)
        runs = {}
        for pure, backend in (("0", "compiled"), ("1", "python")):
            env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
            env["PYTHONPATH"] = os.pathsep.join((tests_dir, env["PYTHONPATH"]))
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert done.returncode == 0, done.stderr
            name, rows = done.stdout.splitlines()
            assert name == backend
            runs[backend] = json.loads(rows)
            assert [row for row in runs[backend] if row[3] != row[4]] == []
        assert runs["compiled"] == runs["python"]

    def test_audit_memo_matches_fresh_slopes(self, compiled_src):
        # verify --oracle hands each sample's memo, filled by the oracle's
        # fast side, to its audit; every verdict must be the one fresh slopes
        # give, margin and tolerance to the bit, whichever backend runs
        script = (
            "import json, ginikit, helpers; print(ginikit.backend_name()); "
            "print(json.dumps(helpers.audit_memo_outcomes()))"
        )
        tests_dir = str(Path(__file__).resolve().parent)
        runs = {}
        for pure, backend in (("0", "compiled"), ("1", "python")):
            env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
            env["PYTHONPATH"] = os.pathsep.join((tests_dir, env["PYTHONPATH"]))
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert done.returncode == 0, done.stderr
            name, rows = done.stdout.splitlines()
            assert name == backend
            runs[backend] = json.loads(rows)
            # 20 samples x 5 default links, 20 x 4 tangent-gap links, 5 uniform
            assert len(runs[backend]) == 185
            assert [row for row in runs[backend] if row[4] != row[5]] == []
            assert {row[4][3] for row in runs[backend] if row[0] == "uniform"} == {True}
        assert runs["compiled"] == runs["python"]

    def test_memo_users_match_per_pair_gini(self, compiled_src, data_dir, tmp_path):
        # polydispersity with custom pairs and the plot marks share one memo
        # of power sums per sample; each value must be gini_mean of its pair
        # evaluated on its own, to the bit, and the golden report and plot
        # bytes must hold, whichever backend runs
        fixture = data_dir / "two_species.csv"
        script = (
            "import json, sys, pathlib, ginikit, helpers; print(ginikit.backend_name()); "
            "print(json.dumps(helpers.memo_user_outcomes("
            "pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]))))"
        )
        tests_dir = str(Path(__file__).resolve().parent)
        goldens = [
            (["mwd-report", "--input", str(fixture)], "golden_report.txt"),
            (["mwd-report", "--input", str(fixture), "--format", "json"], "golden_report.json"),
        ]
        runs = {}
        for pure, backend in (("0", "compiled"), ("1", "python")):
            env = env_importing_from(compiled_src, GINIKIT_PURE=pure)
            for argv, golden in goldens:
                done = subprocess.run(
                    [sys.executable, "-m", "ginikit", *argv], capture_output=True, env=env
                )
                assert done.returncode == 0, done.stderr
                assert done.stdout == (data_dir / golden).read_bytes()
            for suffix in (".svg", ".csv"):
                out = tmp_path / f"plot{suffix}"
                argv = ["plot", "--input", str(fixture), "--out", str(out)]
                done = subprocess.run([sys.executable, "-m", "ginikit", *argv], env=env)
                assert done.returncode == 0
                assert out.read_bytes() == (data_dir / f"golden_plot{suffix}").read_bytes()
            env["PYTHONPATH"] = os.pathsep.join((tests_dir, env["PYTHONPATH"]))
            done = subprocess.run(
                [sys.executable, "-c", script, str(fixture), str(tmp_path)],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == 0, done.stderr
            name, rows = done.stdout.splitlines()
            assert name == backend
            runs[backend] = json.loads(rows)
            # 2 datasets x 2 values of s x (4 averages + 5 custom pairs + 4 marks)
            assert len(runs[backend]) == 52
            assert [row for row in runs[backend] if row[3] != row[4]] == []
        assert runs["compiled"] == runs["python"]

    def test_single_element_sample(self, compiled_kernels):
        la = np.array([1.5])
        lw = np.array([0.25])
        want = (0.25, 1.0, 1.5, 0.0)
        assert compiled_kernels.exp_moments(la, lw, 0.0) == want
        assert _kernels_py.exp_moments(la, lw, 0.0) == want

    def test_buffer_contract(self, compiled_kernels):
        compiled = compiled_kernels.exp_moments
        ok = np.array([0.0, 1.0])
        for bad in (
            np.array([0, 1]),
            ok.astype(np.float32),
            ok.astype(">f8"),
            np.zeros((2, 2)),
            np.zeros(4)[::2],
            ok[:1],
        ):
            with pytest.raises(ValueError):
                compiled(bad, ok, 0.0)
            with pytest.raises(ValueError):
                compiled(ok, bad, 0.0)
        for short, long in ((ok[:1], ok), (ok, ok[:1]), (np.empty(0), ok)):
            for kernel in (compiled, _kernels_py.exp_moments):
                with pytest.raises(ValueError, match="equal length"):
                    kernel(short, long, 1.0)
        with pytest.raises(TypeError):
            compiled(ok, ok, "1.0")
        with pytest.raises(TypeError):
            compiled(ok, ok)
        readonly = ok.copy()
        readonly.flags.writeable = False
        assert bits(compiled(readonly, readonly, 2.0)) == bits(compiled(ok, ok, 2.0))

    def test_empty_input(self, compiled_kernels):
        # the largest of no terms is -inf and their sum 0.0; the mean and
        # variance are NaN, with the same bits from both backends
        empty = np.empty(0)
        want = bits((-math.inf, 0.0, math.nan, math.nan))
        assert bits(compiled_kernels.exp_moments(empty, empty, 1.0)) == want
        assert bits(_kernels_py.exp_moments(empty, empty, 1.0)) == want
        assert bits(_kernels_py.exp_moments([], [], 1.0)) == want


class TestPureKernel:
    """The pure kernel, and the bit identity of its loop and numpy paths.

    None of this needs the compiled backend, so it runs everywhere.  Each
    path is held to the three-pass reference in ``helpers``, which the
    extension mirrors too.
    """

    loop = staticmethod(_kernels_py._exp_moments_loop)
    vector = staticmethod(_kernels_py._exp_moments_vector)

    def assert_paths_agree(self, la, lw, p):
        want = bits(reference(la, lw, p))
        assert bits(self.loop(la, lw, p)) == want
        assert bits(self.vector(la, lw, p)) == want
        assert bits(_kernels_py.exp_moments(la, lw, p)) == want

    def assert_corpus(self, corpus, n):
        for case in CORPORA[corpus][0](n):
            self.assert_paths_agree(*case)

    def test_accepts_plain_lists(self):
        shift, total, mean, var = _kernels_py.exp_moments([1.0, 3.0], [0.0, 0.0], 0.0)
        assert shift == 0.0
        assert total == 2.0
        assert mean == 2.0
        assert var == 1.0

    def test_variance_nonnegative_even_when_tiny(self):
        la = [5.0, 5.0 + 1e-12]
        lw = [0.0, -1e-9]
        *_, var = _kernels_py.exp_moments(la, lw, 0.0)
        assert var >= 0.0

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_sizes_across_switch(self, n):
        self.assert_corpus("random", n)

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_spread_weights(self, n):
        self.assert_corpus("spread_weights", n)

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_extreme_magnitudes(self, n):
        self.assert_corpus("extreme_magnitudes", n)

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_all_equal_logs(self, n):
        self.assert_corpus("all_equal_logs", n)

    def test_weights_come_from_libm_exp(self):
        # the LIBM_N equal terms, a power of two, sum exactly to LIBM_N * u
        # in the first moment, so a weight one ulp off math.exp (numpy's
        # SIMD exp is, for some arguments) would show in the mean
        self.assert_corpus("libm_exp", LIBM_N + 1)
        for la, lw, p in libm_exp_corpus(LIBM_N + 1):
            _, total, mean, _ = self.vector(la, lw, p)
            assert mean == LIBM_N * math.exp(lw[-1]) / total

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH[2:])
    def test_cancelling_sum_is_all_compensation(self, n):
        self.assert_corpus("cancelling_sum", n)

    @pytest.mark.parametrize("n", (VECTOR_N, 4096))
    def test_signed_zero_terms(self, n):
        # the loop's sums start at +0.0, so the mean must come out +0.0
        self.assert_corpus("signed_zero_terms", n)
        for case in signed_zero_terms_corpus(n):
            _, _, mean, _ = self.vector(*case)
            assert math.copysign(1.0, mean) == 1.0

    @pytest.mark.parametrize("n", (2, 9, *SIZES_ACROSS_SWITCH[1:]))
    def test_underflowing_weights(self, n):
        self.assert_corpus("underflowing_weights", n)

    @pytest.mark.parametrize("n", (2, 9, 30, *SIZES_ACROSS_SWITCH[1:4]))
    def test_growing_weights(self, n):
        self.assert_corpus("growing_weights", n)

    @pytest.mark.parametrize("n", (1, 2, 16, *SIZES_ACROSS_SWITCH[1:]))
    def test_tied_addends(self, n):
        self.assert_corpus("tied_addends", n)

    @pytest.mark.parametrize("n", (1, 5, *SIZES_ACROSS_SWITCH[1:]))
    def test_negative_zero_log(self, n):
        self.assert_corpus("negative_zero_log", n)

    @pytest.mark.parametrize("la,lw,p", NON_FINITE_CASES)
    def test_non_finite_logs(self, la, lw, p):
        want = bits_nan_as_nan(reference_first_largest(la, lw, p))
        assert bits_nan_as_nan(self.loop(la, lw, p)) == want
        assert bits_nan_as_nan(_kernels_py.exp_moments(la, lw, p)) == want

    def test_plain_list_inputs(self):
        rng = np.random.default_rng(5)
        la, lw, p = kernel_case(rng, 3 * VECTOR_N)
        self.assert_paths_agree(la.tolist(), lw.tolist(), p)


@pytest.fixture(params=["python", "compiled"])
def kernel_module(request):
    """Each kernel backend in turn; the compiled one is built from a copy of the package."""
    if request.param == "python":
        return _kernels_py
    return request.getfixturevalue("compiled_kernels")


def total_only_kernels(module):
    """``(name, kernel)`` for each kernel entry point of a backend module:
    ``exp_moments``, and for the pure one also its loop and numpy paths."""
    kernels = [("exp_moments", module.exp_moments)]
    if module is _kernels_py:
        kernels += [("loop", module._exp_moments_loop), ("vector", module._exp_moments_vector)]
    return kernels


class TestTotalOnly:
    """``exp_moments(..., moments=False)``: the weight total's pass alone.

    Its shift and total must be the full call's bits, and the reference's,
    under both backends and on both of the pure kernel's paths; its mean and
    variance are NaN.
    """

    @staticmethod
    def assert_total_only(kernel, la, lw, p, want):
        full = kernel(la, lw, p)
        shift, total, mean, variance = kernel(la, lw, p, False)
        assert bits_nan_as_nan((shift, total)) == bits_nan_as_nan(full[:2])
        assert bits_nan_as_nan((shift, total)) == bits_nan_as_nan(want[:2])
        assert math.isnan(mean) and math.isnan(variance)

    @pytest.mark.parametrize("corpus,n", CORPUS_SIZES)
    def test_corpus(self, kernel_module, corpus, n):
        for la, lw, p in CORPORA[corpus][0](n):
            want = reference(la, lw, p)
            for _, kernel in total_only_kernels(kernel_module):
                self.assert_total_only(kernel, la, lw, p, want)

    def test_random_sizes(self, kernel_module):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 4 * VECTOR_N))
            case = kernel_case(rng, n) if n % 2 else extreme_case(rng, n)
            self.assert_total_only(kernel_module.exp_moments, *case, reference(*case))

    @pytest.mark.parametrize("la,lw,p", NON_FINITE_CASES)
    def test_non_finite_logs(self, kernel_module, la, lw, p):
        want = reference_first_largest(la, lw, p)
        args = (la, lw, p) if kernel_module is _kernels_py else (np.array(la), np.array(lw), p)
        self.assert_total_only(kernel_module.exp_moments, *args, want)
        if kernel_module is _kernels_py:
            self.assert_total_only(kernel_module._exp_moments_loop, *args, want)

    def test_empty_and_single_element(self, kernel_module):
        empty = np.empty(0)
        want = bits((-math.inf, 0.0, math.nan, math.nan))
        assert bits(kernel_module.exp_moments(empty, empty, 1.0, False)) == want
        one = (np.array([1.5]), np.array([0.25]), 0.0)
        assert bits(kernel_module.exp_moments(*one, False)) == bits(
            (0.25, 1.0, math.nan, math.nan)
        )
        self.assert_total_only(kernel_module.exp_moments, *one, reference(*one))

    @pytest.mark.parametrize("n", (2, 5, VECTOR_N - 1, VECTOR_N, 4096))
    def test_signed_zero_shift_tie(self, kernel_module, n):
        # the two largest tilts are p * -0.0 + -0.0 = -0.0 and
        # p * 0.0 + -0.0 = +0.0: a tie of zeros for the shift.  Every kernel
        # takes the first, as Python's max does, on both pure paths at any n
        la = np.concatenate((np.linspace(-3.0, -0.5, n - 2), [-0.0, 0.0]))
        lw = np.full(n, -0.0)
        want = reference_first_largest(la.tolist(), lw.tolist(), 1.0)
        for _, kernel in total_only_kernels(kernel_module):
            shift, total, _, _ = kernel(la, lw, 1.0, False)
            assert bits((shift, total)) == bits(kernel(la, lw, 1.0)[:2])
            assert bits((shift, total)) == bits((-0.0, want[1]))

    @pytest.mark.parametrize("n", (VECTOR_N - 1, VECTOR_N, 4096))
    @pytest.mark.parametrize("at", (0, 5))
    def test_nan_tilt_shift(self, compiled_kernels, n, at):
        # a NaN log makes a NaN tilt.  As Python's max does, every kernel
        # keeps a NaN t_0 as the shift and passes over a later NaN, and the
        # loop, the numpy path and C give the same (shift, total) bits
        la = np.linspace(-3.0, -0.5, n)
        la[at] = math.nan
        lw = np.zeros(n)
        shift = max((1.0 * la + lw).tolist())
        assert math.isnan(shift) == (at == 0)
        kernels = [kernel for _, kernel in total_only_kernels(_kernels_py)]
        kernels.append(compiled_kernels.exp_moments)
        for kernel in kernels:
            for moments in (False, True):
                got = kernel(la, lw, 1.0, moments)
                assert bits(got[:2]) == bits((shift, math.nan))

    def test_backends_agree(self, compiled_kernels):
        rng = np.random.default_rng(43)
        for n in (1, 9, VECTOR_N - 1, VECTOR_N, 27_618):
            la, lw, p = kernel_case(rng, n)
            assert bits(compiled_kernels.exp_moments(la, lw, p, False)) == bits(
                _kernels_py.exp_moments(la, lw, p, False)
            )

    def test_moments_argument(self, kernel_module):
        # the fourth argument, by position only, read for its truth value;
        # both kernels refuse any keyword and a fifth argument
        kernel = kernel_module.exp_moments
        la, lw = np.array([0.5, 1.0, 2.0]), np.array([0.0, 0.3, -0.2])
        full = bits(kernel(la, lw, 1.5))
        total_only = bits(kernel(la, lw, 1.5, False))
        assert bits(kernel(la, lw, 1.5, 0)) == total_only
        assert bits(kernel(la, lw, 1.5, True)) == full
        with pytest.raises(TypeError):
            kernel(la, lw, 1.5, False, True)
        for keyword in ({"moments": False}, {"moments": 1}, {"total": False}):
            with pytest.raises(TypeError):
                kernel(la, lw, 1.5, **keyword)
        with pytest.raises(TypeError):
            kernel(la, lw, 1.5, True, moments=False)
