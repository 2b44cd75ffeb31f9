"""Extended-precision reference: exactness, domain, self-consistency."""

from __future__ import annotations

import inspect
import re

import mpmath as mp
import numpy as np
import pytest

import ginikit.oracle as oracle
from ginikit.cli import DEFAULT_GRID_CHAINS, _random_samples
from ginikit.errors import DataError, OracleDomainError, ParameterDomainError
from ginikit.means import _PowerSums, gini_mean
from ginikit.oracle import EquivalenceSummary, equivalence_report, oracle_gini
from ginikit.sample import ExponentPair, PositiveSample

from helpers import HOSTILE, OperatorFormLift, assert_within_ulps, random_sample


class TestOracleConfig:
    """The oracle's one setting: its working precision, ``precision_digits``."""

    def test_defaults(self):
        for entry in (oracle_gini, equivalence_report):
            assert inspect.signature(entry).parameters["precision_digits"].default == 50
        assert oracle.MAX_N == 1024

    @pytest.mark.parametrize("digits", [49, 10, 0, 50.5])
    def test_digits_floor(self, digits):
        s, pair = PositiveSample([1.0, 2.0]), ExponentPair(1.0, 0.0)
        message = f"precision_digits must be an integer >= 50, got {digits!r}"
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            oracle_gini(s, pair, precision_digits=digits)
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            equivalence_report([s], [pair], precision_digits=digits)

    @pytest.mark.parametrize("digits", [1001, 1001.0, 10**6])
    def test_digits_cap(self, digits, monkeypatch):
        # the cost of a reference grows with its digits, so a precision past
        # the cap is refused before any sample is lifted
        assert oracle.MAX_DIGITS == 1000
        s, pair = PositiveSample([1.0, 2.0]), ExponentPair(1.0, 0.0)
        assert oracle_gini(s, pair, precision_digits=1000) == 1.5
        monkeypatch.setattr(oracle, "_LiftedSample", lambda sample: pytest.fail("lifted"))
        message = f"precision_digits must be <= 1000, got {digits!r}"
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            oracle_gini(s, pair, precision_digits=digits)
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            equivalence_report([s], [pair], precision_digits=digits)

    def test_numpy_integers_accepted(self):
        assert oracle._checked_digits(np.int64(60)) == 60
        assert type(oracle._checked_digits(np.int64(60))) is int
        s, pair = PositiveSample([1.0, 2.0]), ExponentPair(0.3, -1.7)
        want = oracle_gini(s, pair, precision_digits=60)
        assert oracle_gini(s, pair, precision_digits=np.int64(60)) == want
        assert equivalence_report([s], [pair], precision_digits=np.int64(60)).passed


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
        s = PositiveSample(np.arange(1.0, 1026.0))
        with pytest.raises(OracleDomainError, match="cap of 1024"):
            oracle_gini(s, ExponentPair(1.0, 0.0))

    def test_sample_at_the_cap_accepted(self):
        # 1..1024: S_1 / S_0 is the mean 1025/2, exact in binary
        s = PositiveSample(np.arange(1.0, 1025.0))
        assert s.n == oracle.MAX_N
        assert oracle_gini(s, ExponentPair(1.0, 0.0)) == 512.5

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
        lo, hi = 50, 100
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
        summary = equivalence_report([s], grid)
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
        # each sample has a grid of its own, so one report per sample
        summaries = [equivalence_report([s], grid) for s, grid in zip(samples, grids)]
        assert sum(summary.cases for summary in summaries) == 200
        for summary in summaries:
            assert isinstance(summary, EquivalenceSummary)
            assert summary.passed, f"max rel error {summary.max_rel_error}"
            if summary.max_rel_error > 0.0:
                assert summary.worst_index is not None
                assert summary.worst_params is not None

    def test_grid_may_be_any_iterable(self):
        samples = _random_samples(1, 3)
        grid = [ExponentPair(2.0, 1.0), ExponentPair(1.0, 0.0), ExponentPair(3.0, -1.0)]
        want = equivalence_report(samples, grid)
        assert want.cases == 9
        assert equivalence_report(samples, iter(grid)) == want
        assert equivalence_report(samples, (pair for pair in grid)) == want

    def test_sample_that_is_no_sample_is_a_data_error(self, monkeypatch):
        grid = [ExponentPair(1.0, 0.0)]
        message = "sample 0 must be a PositiveSample, got float"
        with pytest.raises(DataError, match=re.escape(message)):
            equivalence_report([1.0, 2.0], grid)
        # refused when it is reached: the sample before it is evaluated first
        good = PositiveSample([1.0, 2.0])
        seen = []
        real = _PowerSums.gini
        monkeypatch.setattr(
            _PowerSums, "gini", lambda sums, pair: seen.append(sums.sample) or real(sums, pair)
        )
        with pytest.raises(DataError, match="sample 1 must be a PositiveSample, got list"):
            equivalence_report([good, [1.0, 2.0]], grid)
        assert seen == [good]

    @pytest.mark.parametrize(
        "samples, shown",
        [(None, "None"), (1.5, "1.5"), (10**400, "an integer too large for a double")],
        ids=["None", "float", "huge-int"],
    )
    def test_samples_that_cannot_be_iterated_are_a_data_error(self, samples, shown):
        message = f"samples must be an iterable of PositiveSample objects, got {shown}"
        with pytest.raises(DataError, match=re.escape(message)):
            equivalence_report(samples, [ExponentPair(1.0, 0.0)])

    def test_every_hostile_samples_value_gets_a_report_or_a_data_error(self):
        refused = []
        for value in HOSTILE:
            try:
                summary = equivalence_report(value, [ExponentPair(1.0, 0.0)])
            except DataError:
                refused.append(value)
            else:
                assert summary.cases == 0 and summary.passed
        # only [] and the empty array hold no sample, and no sample is refused
        assert len(refused) == len(HOSTILE) - 2

    def test_oracle_gini_refuses_what_the_report_refuses(self):
        s, pair = PositiveSample([1.0, 2.0]), ExponentPair(1.0, 0.0)
        message = "sample 0 must be a PositiveSample, got float"
        with pytest.raises(DataError, match=re.escape(message)):
            oracle_gini(1.0, pair)
        message = "grid entries must be ExponentPair objects, got (1.0, 0.0)"
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            oracle_gini(s, (1.0, 0.0))
        message = "a grid must be an iterable of ExponentPair objects, got None"
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            equivalence_report([s], None)

    @pytest.mark.parametrize("entry", [(1.0, 0.0), None, 1.0])
    def test_grid_entry_that_is_no_pair_is_a_parameter_error(self, monkeypatch, entry):
        # refused when the grid is read, before any sample is evaluated
        monkeypatch.setattr(_PowerSums, "gini", lambda sums, pair: pytest.fail("evaluated"))
        grid = (pair for pair in [ExponentPair(1.0, 0.0), entry])
        message = f"grid entries must be ExponentPair objects, got {entry!r}"
        with pytest.raises(ParameterDomainError, match=re.escape(message)):
            equivalence_report([PositiveSample([1.0, 2.0])], grid)

    def test_given_memos_are_filled_and_read(self, monkeypatch):
        samples = _random_samples(5, 4)
        grid = [ExponentPair(*pair) for chain in DEFAULT_GRID_CHAINS for pair in chain]
        want = equivalence_report(samples, grid)
        memos = [_PowerSums(sample) for sample in samples]
        assert equivalence_report(samples, grid, _memos=memos) == want
        # the 7 distinct exponents of the default grid, kept per sample
        exponents = {-1.5, -1.0, 0.0, 1.0, 1.5, 2.0, 3.0}
        assert [set(memo._log_sums) for memo in memos] == [exponents] * 4
        # a second report reads the kept log sums and makes no kernel call
        monkeypatch.setattr(_PowerSums, "log_sum", lambda sums, p: sums._log_sums[p])
        assert equivalence_report(samples, grid, _memos=memos) == want


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
    """Each grid of ``SHARED_EXPONENT_GRIDS`` with its samples: six random
    samples and a uniform one, dealt to the two grids in turn."""
    rng = np.random.default_rng(seed)
    samples = [random_sample(rng) for _ in range(6)] + [PositiveSample([3.0, 3.0, 3.0])]
    return [(grid, samples[i::2]) for i, grid in enumerate(SHARED_EXPONENT_GRIDS)]


class TestMemoisedOracle:
    """equivalence_report lifts each sample once; it must match oracle_gini bit for bit."""

    @pytest.mark.parametrize("digits", [50, 100])
    def test_each_case_matches_a_fresh_oracle_call(self, monkeypatch, digits):
        # Serve the "fast" side from a fresh oracle_gini call per case: the
        # report then measures memoised against fresh, and any bit of
        # difference in any case makes max_rel_error nonzero.
        monkeypatch.setattr(
            _PowerSums, "gini", lambda sums, pair: oracle_gini(sums.sample, pair, digits)
        )
        for grid, samples in _shared_exponent_cases(7):
            summary = equivalence_report(samples, grid, digits)
            assert summary.cases == len(grid) * len(samples)
            assert summary.max_rel_error == 0.0
            assert summary.worst_params is summary.worst_index is None

    @pytest.mark.parametrize("digits", [50, 100])
    def test_summary_matches_case_by_case_replay(self, digits):
        for grid, samples in _shared_exponent_cases(8):
            worst, where = 0.0, None
            for index, sample in enumerate(samples):
                for pair in grid:
                    reference = oracle_gini(sample, pair, digits)
                    rel = abs(gini_mean(sample, pair) - reference) / reference
                    if rel > worst:
                        worst, where = rel, (index, pair)
            summary = equivalence_report(samples, grid, digits)
            assert summary.max_rel_error.hex() == worst.hex()
            assert worst > 0.0
            assert (summary.worst_index, summary.worst_params) == where

    @pytest.mark.parametrize("digits", [50, 100])
    def test_matches_the_per_pair_formula(self, digits):
        for grid, samples in _shared_exponent_cases(9):
            for sample in samples:
                for pair in grid:
                    want = _per_pair_gini(sample, pair, digits)
                    assert oracle_gini(sample, pair, digits).hex() == want.hex()

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
            equivalence_report([s], grid)
        with pytest.raises(OracleDomainError, match="exponents"):
            equivalence_report([s, s], grid)

    def test_oversized_sample_rejected_before_lifting(self, monkeypatch):
        def refuse(sample):
            raise AssertionError("sample lifted before its domain check")

        monkeypatch.setattr(oracle, "_LiftedSample", refuse)
        big = PositiveSample(np.arange(1.0, 1026.0))
        with pytest.raises(OracleDomainError, match="cap"):
            equivalence_report([big], [ExponentPair(1.0, 0.0)])
        with pytest.raises(OracleDomainError, match="cap"):
            oracle_gini(big, ExponentPair(1.0, 0.0))


class TestOneReferencePath:
    """oracle_gini and equivalence_report form reference values through one body."""

    def _count_lifts(self, monkeypatch) -> list[int]:
        lifts: list[int] = []
        real = oracle._LiftedSample

        def counting(sample):
            lifts.append(mp.mp.dps)
            return real(sample)

        monkeypatch.setattr(oracle, "_LiftedSample", counting)
        return lifts

    def _count_precision_blocks(self, monkeypatch) -> list[int]:
        blocks: list[int] = []
        real = mp.workdps

        def counting(digits):
            blocks.append(digits)
            return real(digits)

        monkeypatch.setattr(mp, "workdps", counting)
        return blocks

    def test_one_lift_per_sample_and_one_per_tiny_gap(self, monkeypatch):
        samples = _random_samples(5, 12)
        pairs = (ExponentPair(p, q) for chain in DEFAULT_GRID_CHAINS for p, q in chain)
        grid = list(dict.fromkeys(pairs))
        lifts = self._count_lifts(monkeypatch)
        blocks = self._count_precision_blocks(monkeypatch)
        assert equivalence_report(samples, grid).passed
        assert lifts == [50] * len(samples)
        # one precision block for the whole call, none per pair
        assert blocks == [50]
        lifts.clear()
        blocks.clear()
        tiny = [ExponentPair(1e-40, 0.0), ExponentPair(0.0, -1e-60)]
        mixed = grid[:2] + tiny[:1] + grid[2:] + tiny[1:]
        assert equivalence_report(samples[:3], mixed).passed
        # the ordinary pairs share a lift at 50 digits; each tiny-gap pair
        # gets its own at 50 + 40 + 10 and 50 + 60 + 10, never kept
        assert lifts == [50, 100, 120] * 3
        assert blocks == [50] + [100, 120] * 3

    def test_oracle_gini_lifts_once_per_call(self, monkeypatch):
        lifts = self._count_lifts(monkeypatch)
        blocks = self._count_precision_blocks(monkeypatch)
        oracle_gini(GEOMETRIC_TEN, ExponentPair(2.0, 1.0))
        oracle_gini(GEOMETRIC_TEN, ExponentPair(1e-45, 0.0))
        assert lifts == [50, 105]
        assert blocks == [50, 50, 105]

    @pytest.mark.parametrize("caller_digits", [None, 30])
    def test_caller_precision_restored_and_ignored(self, caller_digits):
        sample = random_sample(np.random.default_rng(18))
        grid = [ExponentPair(2.0, 1.0), ExponentPair(0.3, 0.3), ExponentPair(1e-40, 0.0)]
        want = [_per_pair_gini(sample, pair, 50) for pair in grid[:2]]
        want.append(oracle_gini(sample, grid[2]))
        before = mp.mp.dps
        with mp.workdps(caller_digits or before):
            inside = mp.mp.dps
            got = [oracle_gini(sample, pair) for pair in grid]
            assert mp.mp.dps == inside
            summary = equivalence_report([sample], grid)
            assert mp.mp.dps == inside
        assert mp.mp.dps == before
        assert [g.hex() for g in got] == [w.hex() for w in want]
        assert summary.passed and summary.cases == len(grid)

    def test_report_restores_the_precision_after_a_domain_error(self):
        before = mp.mp.dps
        grid = [ExponentPair(1.0, 0.0), ExponentPair(31.0, 0.0)]
        with pytest.raises(OracleDomainError):
            equivalence_report([PositiveSample([1.0, 2.0])], grid)
        assert mp.mp.dps == before


def _reference_terms(sample: PositiveSample, exponent: float) -> list[mp.mpf]:
    """The terms ``w * exp(e * ln a)`` of the general formula, at any
    exponent: the reference the integer-power terms must round to."""
    e = mp.mpf(float(exponent))
    return [
        mp.mpf(float(w)) * mp.exp(e * mp.log(mp.mpf(float(v))))
        for v, w in zip(sample.values, sample.weights)
    ]


def _term_samples(seed: int) -> list[PositiveSample]:
    """CLI-like samples, and samples spanning the whole value domain."""
    rng = np.random.default_rng(seed)
    narrow = [random_sample(rng) for _ in range(4)]
    wide = [random_sample(rng, value_lo=1e-30, value_hi=1e30) for _ in range(4)]
    return narrow + wide + [PositiveSample([1e-30, 1e30])]


HALF_INTEGER_EXPONENTS = [k / 2 for k in range(-60, 61)]


class TestTermFormulas:
    """Integer and half-integer exponents take integer powers; the rest keep exp(e ln a)."""

    @pytest.mark.parametrize("digits", [50, 100])
    def test_half_integer_power_sums_round_to_the_reference(self, digits):
        for sample in _term_samples(11):
            with mp.workdps(digits):
                lifted = oracle._LiftedSample(sample)
                for e in HALF_INTEGER_EXPONENTS:
                    want = float(mp.fsum(_reference_terms(sample, e)))
                    got = float(mp.mpf(lifted.power_sum(e)))
                    assert got.hex() == want.hex(), (e, sample.values)

    @pytest.mark.parametrize("digits", [50, 100])
    def test_half_integer_pairs_round_to_the_reference(self, digits):
        rng = np.random.default_rng(12)
        for sample in _term_samples(12):
            for _ in range(20):
                p, q = rng.choice(HALF_INTEGER_EXPONENTS, size=2)
                pair = ExponentPair(float(p), float(q))
                want = _per_pair_gini(sample, pair, digits)
                assert oracle_gini(sample, pair, digits).hex() == want.hex(), pair

    @pytest.mark.parametrize("exponent", [0.3, 1e-5, -7.1, 29.99, 0.0, -0.0])
    def test_other_exponents_keep_the_reference_terms(self, exponent):
        for sample in _term_samples(13):
            with mp.workdps(50):
                got = oracle._LiftedSample(sample).terms(exponent)
                assert got == [t._mpf_ for t in _reference_terms(sample, exponent)]

    @pytest.mark.parametrize("digits", [50, 100])
    @pytest.mark.parametrize("exponent", [0.3, 1e-5, 0.0, -0.0, 1.0, -1.5, 2.5, -30.0])
    def test_equal_pairs_match_the_reference(self, digits, exponent):
        pair = ExponentPair(exponent, exponent)
        for sample in _term_samples(14):
            want = _per_pair_gini(sample, pair, digits)
            assert oracle_gini(sample, pair, digits).hex() == want.hex()

    def _count_calls(self, monkeypatch, name: str) -> list[object]:
        calls: list[object] = []
        real = getattr(oracle, name)

        def counting(x, prec, rounding):
            calls.append(x)
            return real(x, prec, rounding)

        monkeypatch.setattr(oracle, name, counting)
        return calls

    def test_default_grid_takes_no_logs(self, monkeypatch):
        logs = self._count_calls(monkeypatch, "mpf_log")
        roots = self._count_calls(monkeypatch, "mpf_sqrt")
        samples = _random_samples(3, 20)
        pairs = (ExponentPair(p, q) for chain in DEFAULT_GRID_CHAINS for p, q in chain)
        grid = list(dict.fromkeys(pairs))
        summary = equivalence_report(samples, grid)
        assert summary.passed and summary.cases == len(grid) * len(samples)
        assert logs == []
        # G(1.5, -1.5) needs one square root per value; nothing else does
        assert len(roots) == sum(sample.n for sample in samples)

    def test_roots_and_logs_are_taken_once_and_only_when_needed(self, monkeypatch):
        logs = self._count_calls(monkeypatch, "mpf_log")
        roots = self._count_calls(monkeypatch, "mpf_sqrt")
        sample = random_sample(np.random.default_rng(15))
        integral = [ExponentPair(1.0, -1.0), ExponentPair(3.0, -30.0)]
        equivalence_report([sample], integral)
        assert (logs, roots) == ([], [])
        rest = integral + [ExponentPair(0.5, 2.0), ExponentPair(-1.5, 2.0)]
        rest += [ExponentPair(0.3, 1.0), ExponentPair(2.0, 2.0), ExponentPair(1e-5, 0.3)]
        equivalence_report([sample], rest)
        assert (len(logs), len(roots)) == (sample.n, sample.n)


#: Exponents of the bit-for-bit lift check: integers, odd multiples of 1/2,
#: general exponents and both zeros, up to the oracle's bound.
LIFT_EXPONENTS = (
    -30.0, -2.0, -1.0, 0.0, -0.0, 1.0, 3.0, 30.0,
    -29.5, -1.5, 0.5, 2.5, 0.3, 1e-5, -7.1, 29.99,
)
#: Pairs of the bit-for-bit lift check: each kind of exponent, p == q, and
#: gaps below the tiny-gap threshold, here at the lift's own precision.
LIFT_PAIRS = [
    ExponentPair(p, q)
    for p, q in (
        (2.0, 1.0), (1.0, -1.0), (30.0, -30.0), (1.5, -1.5), (2.5, 0.5), (3.0, 0.3),
        (0.3, -7.1), (1e-5, 0.0), (0.0, 0.0), (2.0, 2.0), (-1.5, -1.5), (0.3, 0.3),
        (1e-22, 0.0), (0.0, -1e-40),
    )
]


class TestLiftIsTheOperatorForm:
    """The raw-tuple lift makes the mpf operators' libmp calls, bit for bit."""

    @pytest.mark.parametrize("digits", [50, 64, 100])
    def test_terms_and_power_sums(self, digits):
        for sample in _term_samples(19):
            with mp.workdps(digits):
                lifted = oracle._LiftedSample(sample)
                want = OperatorFormLift(sample)
                for e in LIFT_EXPONENTS:
                    assert lifted.terms(e) == [t._mpf_ for t in want.terms(e)], e
                    assert lifted.power_sum(e) == want.power_sum(e)._mpf_, e

    @pytest.mark.parametrize("digits", [50, 64, 100])
    def test_gini_before_and_after_rounding(self, monkeypatch, digits):
        unrounded = self._record_unrounded(monkeypatch)
        for sample in _term_samples(20):
            with mp.workdps(digits):
                lifted = oracle._LiftedSample(sample)
                want = OperatorFormLift(sample)
                for pair in LIFT_PAIRS:
                    unrounded.clear()
                    got = lifted.gini(pair)
                    reference = want.gini(pair)
                    assert unrounded == [reference._mpf_], pair
                    assert got.hex() == float(reference).hex(), pair

    @pytest.mark.parametrize("digits", [50, 64, 100])
    def test_tiny_gap_lift_at_raised_precision(self, monkeypatch, digits):
        unrounded = self._record_unrounded(monkeypatch)
        # digits the gap cancels: ceil(-log10 gap)
        tiny = ((ExponentPair(1e-22, 0.0), 22), (ExponentPair(0.0, -3e-41), 41))
        for sample in _term_samples(21):
            for pair, cancelled in tiny:
                unrounded.clear()
                got = oracle_gini(sample, pair, digits)
                with mp.workdps(digits + cancelled + oracle.TINY_GAP_MARGIN_DIGITS):
                    reference = OperatorFormLift(sample).gini(pair)
                assert unrounded == [reference._mpf_], pair
                assert got.hex() == float(reference).hex(), pair

    def test_shared_inverse_gap_follows_the_precision(self, monkeypatch):
        # 1/(p - q) is inexact for both pairs, so a value kept from another
        # precision would change the unrounded result
        unrounded = self._record_unrounded(monkeypatch)
        sample = _term_samples(22)[0]
        ordinary, tiny = ExponentPair(0.3, -7.1), ExponentPair(3e-21, -7e-22)
        margin = oracle.TINY_GAP_MARGIN_DIGITS
        # (pair, configured digits, digits of its lift); the tiny gap cancels 21
        steps = [
            (ordinary, 50, 50), (ordinary, 100, 100), (ordinary, 50, 50),
            (tiny, 50, 50 + 21 + margin), (tiny, 100, 100 + 21 + margin),
        ]
        for pair, digits, lift_digits in steps:
            unrounded.clear()
            got = oracle_gini(sample, pair, digits)
            with mp.workdps(lift_digits):
                reference = OperatorFormLift(sample).gini(pair)
            assert unrounded == [reference._mpf_], (pair, digits)
            assert got.hex() == float(reference).hex(), (pair, digits)

    @staticmethod
    def _record_unrounded(monkeypatch) -> list[tuple]:
        """Record each value the lift rounds to a double."""
        seen: list[tuple] = []
        real = oracle.to_float

        def recording(value, **kwargs):
            seen.append(value)
            return real(value, **kwargs)

        monkeypatch.setattr(oracle, "to_float", recording)
        return seen


#: The sample [1, 2, 5, 1000] has geometric mean 10, the limit of G(gap, 0).
GEOMETRIC_TEN = PositiveSample([1.0, 2.0, 5.0, 1000.0])
TINY_GAPS = [1e-40, 1e-45, 1e-60, 5e-324]


class TestTinyGaps:
    """A gap below 1e-20 raises the working precision by the digits it cancels."""

    @pytest.mark.parametrize("gap", TINY_GAPS)
    def test_limit_is_the_geometric_mean(self, gap):
        assert_within_ulps(oracle_gini(GEOMETRIC_TEN, ExponentPair(gap, 0.0)), 10.0, 2)
        assert_within_ulps(oracle_gini(GEOMETRIC_TEN, ExponentPair(0.0, -gap)), 10.0, 2)
        assert_within_ulps(oracle_gini(GEOMETRIC_TEN, ExponentPair(-gap, 0.0)), 10.0, 2)

    def test_report_evaluates_tiny_gaps_like_oracle_gini(self, monkeypatch):
        monkeypatch.setattr(_PowerSums, "gini", lambda sums, pair: oracle_gini(sums.sample, pair))
        grid = [ExponentPair(1.0, 0.0)] + [ExponentPair(gap, 0.0) for gap in TINY_GAPS]
        grid += [ExponentPair(0.0, 0.0), ExponentPair(1e-20, 0.0)]
        summary = equivalence_report([GEOMETRIC_TEN], grid)
        assert summary.cases == len(grid)
        assert summary.max_rel_error == 0.0

    def test_report_is_within_tolerance_at_tiny_gaps(self):
        grid = [ExponentPair(gap, 0.0) for gap in TINY_GAPS]
        assert equivalence_report([GEOMETRIC_TEN], grid).passed

    @pytest.mark.parametrize("gap", [1e-20, 3e-15, 1e-10, 0.25])
    def test_ordinary_gaps_keep_the_configured_digits(self, gap):
        for sample in _term_samples(16)[::2]:
            pair = ExponentPair(0.7 + gap, 0.7) if gap > 1e-15 else ExponentPair(gap, 0.0)
            want = _per_pair_gini(sample, pair, 50)
            assert oracle_gini(sample, pair).hex() == want.hex()

    def test_self_consistency_over_log_spaced_gaps(self):
        lo, hi = 50, 200
        rng = np.random.default_rng(17)
        samples = [random_sample(rng), random_sample(rng, value_lo=1e-25, value_hi=1e25)]
        samples.append(PositiveSample([1e-25, 3.0, 1e25], [2.0, 0.5, 1.0]))
        gaps = [5e-324] + [10.0**-k for k in range(320, -1, -10)]
        for sample in samples:
            for gap in gaps:
                for pair in (ExponentPair(gap, 0.0), ExponentPair(-2.5, -2.5 - gap)):
                    if pair.p == pair.q:
                        continue  # the gap is below the spacing of doubles at 2.5
                    want = oracle_gini(sample, pair, hi)
                    assert oracle_gini(sample, pair, lo) == want, (gap, pair)
