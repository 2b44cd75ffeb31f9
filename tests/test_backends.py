"""Kernel backend selection and compiled/pure bit-identity."""

from __future__ import annotations

import importlib.util
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from ginikit import _backend, _kernels_py, backend_name, gini_mean
from ginikit.sample import ExponentPair, PositiveSample

from helpers import compiled_kernel_file, env_importing_from, random_sample


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
    """The (exponents, logs, shift) triple the mean pipeline builds.

    ``PositiveSample`` sorts its logs by (ln a, ln w) once, and
    ``log_power_sum`` forms t = p * ln a + ln w in that order.
    """
    order = np.lexsort((lw, la))
    la, lw = la[order], lw[order]
    t = p * la + lw
    return t, la, float(t.max())


def kernel_case(rng, n, p_max=60.0):
    """One (exponents, logs, shift) triple like the mean pipeline builds."""
    la = np.log(rng.uniform(1e-3, 1e3, size=n))
    lw = np.log(rng.uniform(0.5, 2.0, size=n))
    return pipeline_triple(la, lw, rng.uniform(-p_max, p_max))


def extreme_case(rng, n):
    """A pipeline triple with logs in [-700, 700] and |p| up to 100."""
    la = rng.uniform(-700.0, 700.0, size=n)
    lw = rng.uniform(-5.0, 5.0, size=n)
    return pipeline_triple(la, lw, rng.uniform(-100.0, 100.0))


def bits(result):
    """The exact bit patterns of a kernel result; tells -0.0 from +0.0."""
    return struct.pack("<3d", *result)


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
    def test_kernel_outputs_identical(self, compiled_kernels):
        compiled = compiled_kernels.exp_moments
        pure = _kernels_py.exp_moments
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(1, 4 * VECTOR_N))
            t, la, shift = kernel_case(rng, n)
            assert bits(compiled(t, la, shift)) == bits(pure(t, la, shift))
        for n in SIZES_ACROSS_SWITCH:
            t, la, shift = kernel_case(rng, n)
            assert bits(compiled(t, la, shift)) == bits(pure(t, la, shift))

    def test_kernel_outputs_identical_extreme_magnitudes(self, compiled_kernels):
        compiled = compiled_kernels.exp_moments
        pure = _kernels_py.exp_moments
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 4 * VECTOR_N))
            t, la, shift = extreme_case(rng, n)
            assert bits(compiled(t, la, shift)) == bits(pure(t, la, shift))

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
        for s, pair, reference in cases:
            assert gini_mean(s, pair) == reference

    def test_single_element_sample(self, compiled_kernels):
        compiled = compiled_kernels.exp_moments
        t = np.array([0.25])
        la = np.array([1.5])
        assert compiled(t, la, 0.25) == _kernels_py.exp_moments(t, la, 0.25)

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
        readonly = ok.copy()
        readonly.flags.writeable = False
        assert bits(compiled(readonly, readonly, 0.0)) == bits(compiled(ok, ok, 0.0))

    def test_empty_input(self, compiled_kernels):
        total, mean, variance = compiled_kernels.exp_moments(np.empty(0), np.empty(0), 0.0)
        assert struct.pack("<d", total) == struct.pack("<d", 0.0)
        assert math.isnan(mean) and math.isnan(variance)


class TestPureKernel:
    """The pure kernel, and the bit identity of its loop and numpy paths.

    None of this needs the compiled backend, so it runs everywhere; the
    path tests hold the numpy path to the loop that the extension mirrors.
    """

    loop = staticmethod(_kernels_py._exp_moments_loop)
    vector = staticmethod(_kernels_py._exp_moments_vector)

    def assert_paths_agree(self, t, la, shift):
        want = bits(self.loop(t, la, shift))
        assert bits(self.vector(t, la, shift)) == want
        assert bits(_kernels_py.exp_moments(t, la, shift)) == want

    def test_accepts_plain_lists(self):
        total, mean, var = _kernels_py.exp_moments([0.0, 0.0], [1.0, 3.0], 0.0)
        assert total == 2.0
        assert mean == 2.0
        assert var == 1.0

    def test_variance_nonnegative_even_when_tiny(self):
        t = [0.0, -1e-9]
        la = [5.0, 5.0 + 1e-12]
        _, _, var = _kernels_py.exp_moments(t, la, 0.0)
        assert var >= 0.0

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_sizes_across_switch(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            self.assert_paths_agree(*kernel_case(rng, n))

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_spread_weights(self, n):
        # |p| <= 3, as for the molar-mass averages: many weights of similar
        # size, so the rounding of each product u * d * d reaches the variance
        rng = np.random.default_rng(97 + n)
        for _ in range(3):
            self.assert_paths_agree(*kernel_case(rng, n, p_max=3.0))

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_extreme_magnitudes(self, n):
        rng = np.random.default_rng(31 + n)
        for _ in range(3):
            self.assert_paths_agree(*extreme_case(rng, n))

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH)
    def test_all_equal_logs(self, n):
        la = np.full(n, 2.5)
        self.assert_paths_agree(1.5 * la, la, 1.5 * 2.5)

    def test_weights_come_from_libm_exp(self):
        # n equal terms with n a power of two sum exactly to n * u, so a
        # weight one ulp off math.exp (numpy's SIMD exp is, for some
        # arguments) would show in the total
        n = 1 << VECTOR_N.bit_length()
        for x in np.random.default_rng(3).uniform(-700.0, 0.0, 200).tolist():
            t = np.full(n, x)
            la = np.zeros(n)
            self.assert_paths_agree(t, la, 0.0)
            assert self.vector(t, la, 0.0)[0] == n * math.exp(x)

    @pytest.mark.parametrize("n", SIZES_ACROSS_SWITCH[2:])
    def test_cancelling_sum_is_all_compensation(self, n):
        # 1, then terms too small to move it, then -1: the running sum ends
        # at exactly 0, so the result is the compensation total alone and
        # the order in which it was accumulated shows in its last bits
        rng = np.random.default_rng(n)
        tiny = rng.uniform(0.0, 1e-16, n - 2) * rng.choice([1.0, 1e-8], n - 2)
        la = np.concatenate(([1.0], tiny, [-1.0]))
        self.assert_paths_agree(np.zeros(n), la, 0.0)

    @pytest.mark.parametrize("n", (VECTOR_N, 4096))
    def test_signed_zero_terms(self, n):
        # every product u * log is -0.0 (and some weights underflow to +0.0):
        # the loop's sums start at +0.0, so the mean must come out +0.0
        t = np.zeros(n)
        t[: n // 2] = -800.0
        la = np.full(n, -0.0)
        self.assert_paths_agree(t, la, 0.0)
        _, mean, _ = self.vector(t, la, 0.0)
        assert math.copysign(1.0, mean) == 1.0

    def test_plain_list_inputs(self):
        rng = np.random.default_rng(5)
        t, la, shift = kernel_case(rng, 3 * VECTOR_N)
        self.assert_paths_agree(t.tolist(), la.tolist(), shift)
