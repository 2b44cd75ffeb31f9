"""Extended-precision reference: exactness, domain, self-consistency."""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

import ginikit.oracle as oracle
from ginikit.errors import OracleDomainError, ParameterDomainError
from ginikit.means import gini_mean
from ginikit.oracle import EquivalenceSummary, OracleConfig, equivalence_report, oracle_gini
from ginikit.sample import ExponentPair, PositiveSample

from helpers import random_sample


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.precision_digits == 50
        assert cfg.max_n == 1024

    @pytest.mark.parametrize("digits", [49, 10, 0, 50.5])
    def test_digits_floor(self, digits):
        with pytest.raises(ParameterDomainError):
            OracleConfig(precision_digits=digits)

    @pytest.mark.parametrize("max_n", [0, 1025, 3.5])
    def test_max_n_cap(self, max_n):
        with pytest.raises(ParameterDomainError):
            OracleConfig(max_n=max_n)


class TestOracleGini:
    def test_exact_rationals(self):
        assert oracle_gini(PositiveSample([1.0, 7.0]), ExponentPair(2.0, 0.0)) == 5.0
        assert (
            oracle_gini(PositiveSample([1.0, 2.0, 3.0]), ExponentPair(2.0, 1.0))
            == 2.3333333333333335
        )
        # weighted: S_1/S_0 of {1,2} with weights {1,3} is 7/4
        assert (
            oracle_gini(
                PositiveSample([1.0, 2.0], [1.0, 3.0]), ExponentPair(1.0, 0.0)
            )
            == 1.75
        )

    def test_equal_parameter_branch(self):
        assert (
            oracle_gini(PositiveSample([1.0, 2.0]), ExponentPair(1.0, 1.0))
            == 1.5874010519681996
        )
        assert oracle_gini(PositiveSample([1.0, 4.0]), ExponentPair(0.0, 0.0)) == 2.0

    def test_domain_sample_size(self):
        cfg = OracleConfig(max_n=4)
        s = PositiveSample([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(OracleDomainError):
            oracle_gini(s, ExponentPair(1.0, 0.0), cfg)

    def test_domain_exponents(self):
        with pytest.raises(OracleDomainError):
            oracle_gini(PositiveSample([1.0, 2.0]), ExponentPair(31.0, 0.0))

    def test_domain_values(self):
        with pytest.raises(OracleDomainError):
            oracle_gini(PositiveSample([1e-31, 1.0]), ExponentPair(1.0, 0.0))
        with pytest.raises(OracleDomainError):
            oracle_gini(PositiveSample([1.0, 1e31]), ExponentPair(1.0, 0.0))

    def test_self_consistency_doubling_digits(self):
        rng = np.random.default_rng(44)
        lo = OracleConfig(precision_digits=50)
        hi = OracleConfig(precision_digits=100)
        for _ in range(25):
            s = random_sample(rng)
            p = float(rng.uniform(-30, 30))
            q = float(rng.uniform(-30, 30))
            pair = ExponentPair(p, q)
            assert oracle_gini(s, pair, lo) == oracle_gini(s, pair, hi)


class TestEquivalenceReport:
    def test_uniform_sample_agrees_exactly(self):
        s = PositiveSample([3.0, 3.0])
        grid = [ExponentPair(2.0, 0.0), ExponentPair(1.0, 1.0)]
        summary = equivalence_report([s], [grid])
        assert summary.cases == 2
        assert summary.max_rel_error == 0.0
        assert summary.passed

    def test_random_suite_within_tolerance(self):
        rng = np.random.default_rng(4242)
        samples, grids = [], []
        for _ in range(40):
            samples.append(random_sample(rng))
            grid = []
            for _ in range(5):
                while True:
                    p = float(rng.uniform(-30, 30))
                    q = float(rng.uniform(-30, 30))
                    if abs(p - q) >= 0.25:
                        break
                grid.append(ExponentPair(p, q))
            grids.append(grid)
        summary = equivalence_report(samples, grids, rel_tol=1e-12)
        assert isinstance(summary, EquivalenceSummary)
        assert summary.cases == 200
        assert summary.passed, f"max rel error {summary.max_rel_error}"
        if summary.max_rel_error > 0.0:
            assert summary.worst_sample is not None
            assert summary.worst_params is not None

    def test_grid_sample_mismatch_rejected(self):
        s = PositiveSample([1.0, 2.0])
        with pytest.raises(ParameterDomainError):
            equivalence_report([s], [[ExponentPair(1.0, 0.0)], [ExponentPair(2.0, 0.0)]])


#: Grids whose pairs share exponents, with p == q pairs and both signs of
#: zero: 0.0 and -0.0 are one memo entry in the lifted sample.
SHARED_EXPONENT_GRIDS = [
    [
        ExponentPair(1.0, -1.0),
        ExponentPair(1.0, 0.0),
        ExponentPair(2.0, 0.0),
        ExponentPair(2.0, 1.0),
        ExponentPair(3.0, 2.0),
        ExponentPair(1.5, -1.5),
    ],
    [
        ExponentPair(1.0, 1.0),
        ExponentPair(2.0, 1.0),
        ExponentPair(1.0, 1.0),
        ExponentPair(1.0, -0.0),
        ExponentPair(0.0, 0.0),
        ExponentPair(-0.0, -0.0),
        ExponentPair(-0.0, -2.5),
        ExponentPair(0.0, -2.5),
        ExponentPair(-2.5, -2.5),
    ],
]


def _per_pair_gini(sample: PositiveSample, params: ExponentPair, digits: int) -> float:
    """The oracle formula evaluated from scratch for one pair, nothing reused."""
    with mp.workdps(digits):
        values = [mp.mpf(float(v)) for v in sample.values]
        weights = [mp.mpf(float(w)) for w in sample.weights]
        logs = [mp.log(v) for v in values]

        def power_sum(exponent: float) -> mp.mpf:
            e = mp.mpf(float(exponent))
            return mp.fsum(w * mp.exp(e * lg) for w, lg in zip(weights, logs))

        if params.p == params.q:
            p = mp.mpf(float(params.p))
            tilted = [w * mp.exp(p * lg) for w, lg in zip(weights, logs)]
            result = mp.exp(
                mp.fsum(t * lg for t, lg in zip(tilted, logs)) / mp.fsum(tilted)
            )
        else:
            ratio = power_sum(params.p) / power_sum(params.q)
            result = ratio ** (1 / (mp.mpf(float(params.p)) - mp.mpf(float(params.q))))
        return float(result)


def _shared_exponent_cases(seed: int):
    rng = np.random.default_rng(seed)
    samples = [random_sample(rng) for _ in range(6)] + [PositiveSample([3.0, 3.0, 3.0])]
    grids = [SHARED_EXPONENT_GRIDS[i % 2] for i in range(len(samples))]
    return samples, grids


class TestMemoisedOracle:
    """equivalence_report lifts each sample once; it must match oracle_gini bit for bit."""

    @pytest.mark.parametrize("digits", [50, 100])
    def test_each_case_matches_a_fresh_oracle_call(self, monkeypatch, digits):
        config = OracleConfig(precision_digits=digits)
        samples, grids = _shared_exponent_cases(7)
        # Serve the "fast" side from a fresh oracle_gini call per case: the
        # report then measures memoised against fresh, and any bit of
        # difference in any case makes max_rel_error nonzero.
        monkeypatch.setattr(
            oracle, "gini_mean", lambda sample, pair: oracle_gini(sample, pair, config)
        )
        summary = equivalence_report(samples, grids, config)
        assert summary.cases == sum(len(grid) for grid in grids)
        assert summary.max_rel_error == 0.0
        assert summary.worst_sample is summary.worst_params is summary.worst_index is None

    @pytest.mark.parametrize("digits", [50, 100])
    def test_summary_matches_case_by_case_replay(self, digits):
        config = OracleConfig(precision_digits=digits)
        samples, grids = _shared_exponent_cases(8)
        worst, where = 0.0, None
        for index, (sample, grid) in enumerate(zip(samples, grids)):
            for pair in grid:
                reference = oracle_gini(sample, pair, config)
                rel = abs(gini_mean(sample, pair) - reference) / reference
                if rel > worst:
                    worst, where = rel, (index, pair)
        summary = equivalence_report(samples, grids, config)
        assert summary.max_rel_error.hex() == worst.hex()
        assert worst > 0.0
        assert (summary.worst_index, summary.worst_params) == where
        assert summary.worst_sample is samples[where[0]]

    @pytest.mark.parametrize("digits", [50, 100])
    def test_matches_the_per_pair_formula(self, digits):
        config = OracleConfig(precision_digits=digits)
        samples, grids = _shared_exponent_cases(9)
        for sample, grid in zip(samples, grids):
            for pair in grid:
                want = _per_pair_gini(sample, pair, digits)
                assert oracle_gini(sample, pair, config).hex() == want.hex()

    def test_signed_zero_exponents_give_identical_bits(self):
        sample = random_sample(np.random.default_rng(9))
        for p, q in [(1.0, 0.0), (0.0, 0.0), (0.0, -2.5)]:
            flipped = ExponentPair(-0.0 if p == 0.0 else p, -0.0 if q == 0.0 else q)
            want = oracle_gini(sample, ExponentPair(p, q)).hex()
            assert oracle_gini(sample, flipped).hex() == want

    def test_domain_checked_for_every_pair(self):
        s = PositiveSample([1.0, 2.0])
        # the first pair lifts the sample; the second is still checked
        grid = [ExponentPair(1.0, 0.0), ExponentPair(31.0, 0.0)]
        with pytest.raises(OracleDomainError, match="exponents"):
            equivalence_report([s], [grid])
        with pytest.raises(OracleDomainError, match="exponents"):
            equivalence_report([s, s], [[ExponentPair(1.0, 0.0)], grid])

    def test_oversized_sample_rejected_before_lifting(self, monkeypatch):
        def refuse(sample):
            raise AssertionError("sample lifted before its domain check")

        monkeypatch.setattr(oracle, "_LiftedSample", refuse)
        big = PositiveSample(np.arange(1.0, 6.0))
        with pytest.raises(OracleDomainError, match="cap"):
            equivalence_report([big], [[ExponentPair(1.0, 0.0)]], OracleConfig(max_n=4))
        with pytest.raises(OracleDomainError, match="cap"):
            oracle_gini(big, ExponentPair(1.0, 0.0), OracleConfig(max_n=4))
