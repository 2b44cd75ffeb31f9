"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Every test uses the frozen seed so the gate is deterministic.  Sampling
ranges are pinned where a guarantee needs them (finite differences, tiny
parameter gaps, extended-precision comparisons); the pinned ranges and the
measured headroom behind each tolerance are recorded in the project notes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import ginikit.cli as cli
from ginikit.audit import (
    AuditVerdict,
    ParameterOrder,
    check_monotonicity,
    check_power_mean_bound,
    convexity_gap,
)
from ginikit.cli import main
from ginikit.means import gini_mean, power_mean, secant_slope
from ginikit.mwd import (
    MWDataset,
    generate_flory,
    generate_lognormal,
    generate_poisson,
    load_mwd,
    number_average,
    polydispersity,
    viscosity_average,
    weight_average,
    z_average,
)
from ginikit.oracle import equivalence_report
from ginikit.sample import ExponentPair, PositiveSample

SEED = 20260814


def nonuniform_sample(rng, n_hi, lo, hi):
    n = int(rng.integers(2, n_hi + 1))
    while True:
        values = 10.0 ** rng.uniform(lo, hi, n)
        if values.max() > values.min():
            break
    return PositiveSample(values, rng.uniform(0.5, 2.0, n))


def test_01_monotonicity_holds_on_1000_random_parameter_orders():
    # samples: n in [2,64], values log-uniform over 12 decades, random
    # weights; orders straddle zero with both exponents raised by >= 0.1
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    for _ in range(1000):
        s = nonuniform_sample(rng, 64, -6.0, 6.0)
        q1 = rng.uniform(-50.0, -0.5)
        p1 = rng.uniform(0.5, 44.8)
        dp = rng.uniform(0.1, 5.0)
        dq = rng.uniform(0.1, 5.0)
        verdict = check_monotonicity(
            s, ParameterOrder(ExponentPair(p1, q1), ExponentPair(p1 + dp, q1 + dq))
        )
        assert verdict.holds and verdict.margin > 0.0
    assert time.perf_counter() - started < 10.0


def test_02_power_mean_bounds_hold_on_both_hypothesis_branches():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        s = nonuniform_sample(rng, 32, -3.0, 3.0)
        # bracketing from above: r >= p > q with r > 0 > q
        r = rng.uniform(0.5, 10.0)
        q = rng.uniform(-10.0, -0.1)
        p = rng.uniform(q + 0.1, r)
        above = check_power_mean_bound(s, p, q, r)
        assert above.holds and above.margin > 0.0
        # bracketing from below: p >= r > 0 with p > q > 0
        p2 = rng.uniform(0.6, 12.0)
        r2 = rng.uniform(0.1, p2)
        q2 = rng.uniform(0.05, p2 - 0.1)
        below = check_power_mean_bound(s, p2, q2, r2)
        assert below.holds and below.margin > 0.0
    # the named instance p=1, q=1-b against r=1 over 50 calibration values
    rng = np.random.default_rng(SEED + 1)
    for b in np.linspace(0.01, 0.99, 50):
        for _ in range(4):
            s = nonuniform_sample(rng, 32, -3.0, 3.0)
            verdict = check_power_mean_bound(s, 1.0, 1.0 - float(b), 1.0)
            assert verdict.holds and verdict.margin > 0.0


def test_03_convexity_gap_positive_and_matches_finite_difference():
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        s = nonuniform_sample(rng, 16, -2.0, 2.0)
        assert convexity_gap(s, rng.uniform(-2.0, 2.0)) > 0.0
    # central difference of the secant slope on bimodal samples; step
    # scaled to the exponent so truncation stays ~1e-8 against tol 1e-6
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        half = int(rng.integers(1, 5))
        low = 10.0 ** rng.uniform(-1.0, -0.82)
        values = np.concatenate(
            [low * (1.0 + rng.uniform(0, 0.5, half)), rng.uniform(7.0, 10.0, half)]
        )
        s = PositiveSample(values, rng.uniform(0.9, 1.1, 2 * half))
        p = rng.uniform(-0.5, 0.5)
        h = 1e-4 * (1.0 + abs(p))
        fd = (secant_slope(s, p, p + h) - secant_slope(s, p - h, p)) / h
        gap = convexity_gap(s, p)
        assert abs(fd - gap) / abs(gap) <= 1e-6


def test_04_extended_precision_oracle_agreement_over_10000_cases():
    # n <= 16, values in [1e-3, 1e3], |p|,|q| <= 30, pair gap >= 0.25
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    samples, grids = [], []
    for _ in range(500):
        samples.append(nonuniform_sample(rng, 16, -3.0, 3.0))
        pairs = []
        while len(pairs) < 20:
            p = rng.uniform(-30.0, 30.0)
            q = rng.uniform(-30.0, 30.0)
            if abs(p - q) >= 0.25:
                pairs.append(ExponentPair(p, q))
        grids.append(pairs)
    # each sample has pairs of its own, so one report per sample
    summaries = [equivalence_report([s], pairs) for s, pairs in zip(samples, grids)]
    assert sum(summary.cases for summary in summaries) == 10000
    assert all(summary.passed for summary in summaries)
    assert max(summary.max_rel_error for summary in summaries) <= 1e-12
    assert time.perf_counter() - started < 60.0


def test_05_stability_over_600_decades_and_power_mean_identity():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        values = 10.0 ** rng.uniform(-300.0, 300.0, n)
        s = PositiveSample(values, rng.uniform(0.5, 2.0, n))
        g = gini_mean(s, ExponentPair(rng.uniform(-100, 100), rng.uniform(-100, 100)))
        assert math.isfinite(g)
        assert s.min_value <= g <= s.max_value
        r = rng.uniform(-100.0, 100.0)
        as_power = power_mean(s, r)
        as_gini = gini_mean(s, ExponentPair(r, 0.0))
        assert abs(as_power - as_gini) <= 1e-13 * abs(as_gini)


def test_06_power_mean_approaches_extremes_monotonically():
    s = PositiveSample([1.0, 5.0])
    ln5, ln2 = math.log(5.0), math.log(2.0)
    upward = [power_mean(s, 10.0**k) for k in range(1, 5)]
    assert all(b > a for a, b in zip(upward, upward[1:]))
    assert abs(upward[-1] - 5.0) / 5.0 <= 1e-3
    for k, got in zip(range(1, 5), upward):
        p = 10.0**k
        closed = math.exp(ln5 + (math.log1p(5.0**-p) - ln2) / p)
        assert got == pytest.approx(closed, rel=1e-12)
    downward = [power_mean(s, -(10.0**k)) for k in range(1, 5)]
    assert all(b < a for a, b in zip(downward, downward[1:]))
    assert abs(downward[-1] - 1.0) <= 1e-3


def test_07_equal_exponent_branch_is_continuous():
    rng = np.random.default_rng(SEED)
    eps = 1e-6
    for _ in range(200):
        n = int(rng.integers(2, 17))
        values = 10.0 ** rng.uniform(-2.0, 2.0, n)
        s = PositiveSample(values, rng.uniform(0.5, 2.0, n))
        m = rng.uniform(-3.0, 3.0)
        straddle = gini_mean(s, ExponentPair(m + eps, m - eps))
        diagonal = gini_mean(s, ExponentPair(m, m))
        assert abs(straddle - diagonal) / diagonal <= 1e-8


def test_08_average_chain_strict_and_two_species_reference_values(data_dir):
    datasets = [
        load_mwd(data_dir / "two_species.csv"),
        generate_flory(100.0, 0.7),
        generate_poisson(100.0, 20.0),
        generate_lognormal(1e5, 0.5, 101),
        MWDataset(masses=[50.0, 75.0, 400.0], abundances=[2.0, 1.0, 0.25]),
    ]
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        n = int(rng.integers(2, 30))
        datasets.append(
            MWDataset(
                masses=10.0 ** rng.uniform(1.0, 6.0, n),
                abundances=rng.uniform(0.1, 2.0, n),
            )
        )
    for ds in datasets:
        mn, mw, mz = number_average(ds), weight_average(ds), z_average(ds)
        for s in np.arange(0.1, 0.95, 0.1):
            mv = viscosity_average(ds, float(s))
            assert mn < mv < mw < mz
        # the s = 1.0 endpoint coincides with Mw by definition, so the
        # strict chain closes with equality there
        assert viscosity_average(ds, 1.0) == mw

    two = load_mwd(data_dir / "two_species.csv")
    m, a = two.masses, two.abundances
    mn_direct = float((m * a).sum() / a.sum())
    mw_direct = float(((m**2) * a).sum() / (m * a).sum())
    mz_direct = float(((m**3) * a).sum() / ((m**2) * a).sum())
    assert mn_direct == 200.0
    assert mw_direct == 250.0
    assert mz_direct == 280.0
    assert mw_direct / mn_direct == 1.25
    report = polydispersity(two)
    assert report.Mn == pytest.approx(200.0, rel=5e-15)
    assert report.Mw == pytest.approx(250.0, rel=5e-15)
    assert report.Mz == pytest.approx(280.0, rel=5e-15)
    assert report.pdi == pytest.approx(1.25, rel=5e-15)


def test_09_flory_generator_matches_brute_force_series():
    ds = generate_flory(100.0, 0.5, 1e-12)
    report = polydispersity(ds)
    m, a = ds.masses, ds.abundances
    mn_brute = float((m * a).sum() / a.sum())
    mw_brute = float(((m**2) * a).sum() / (m * a).sum())
    pdi_brute = mw_brute / mn_brute
    assert report.Mn == pytest.approx(mn_brute, rel=1e-9)
    assert report.pdi == pytest.approx(pdi_brute, rel=1e-6)
    assert report.pdi == pytest.approx(1.5, rel=1e-6)


def test_10_cli_golden_bytes_and_exit_code_contract(
    data_dir, tmp_path, capsys, monkeypatch
):
    fixture = str(data_dir / "two_species.csv")
    # golden bytes, through the real entry point
    for argv, golden in (
        (["mwd-report", "--input", fixture], "golden_report.txt"),
        (
            ["mwd-report", "--input", fixture, "--format", "json"],
            "golden_report.json",
        ),
    ):
        out = subprocess.run(
            [sys.executable, "-m", "ginikit", *argv], capture_output=True
        )
        assert out.returncode == 0
        assert out.stdout == (data_dir / golden).read_bytes()
    for suffix, golden in ((".svg", "golden_plot.svg"), (".csv", "golden_plot.csv")):
        out_path = tmp_path / f"plot{suffix}"
        out = subprocess.run(
            [
                sys.executable, "-m", "ginikit", "plot",
                "--input", fixture, "--out", str(out_path),
            ],
            capture_output=True,
        )
        assert out.returncode == 0
        assert out_path.read_bytes() == (data_dir / golden).read_bytes()

    # exit code 0: success
    assert main(["mean", "2", "8", "--r", "1"]) == 0
    # exit code 1: unusable data (bad file rows, nonpositive values)
    bad = tmp_path / "bad.csv"
    bad.write_text("molar_mass,abundance\n-1,1\n", encoding="utf-8")
    assert main(["mwd-report", "--input", str(bad)]) == 1
    assert main(["mean", "0", "1", "--r", "1"]) == 1
    assert main(["mwd-report", "--input", str(tmp_path / "absent.csv")]) == 1
    # exit code 2: usage and parameter errors
    assert main(["mean", "1", "2"]) == 2
    assert main(["mean", "1", "2", "--r", "inf"]) == 2
    assert main(["verify", "--random", "1", "2", "--grid", "2:0"]) == 2
    assert main(["plot", "--input", fixture, "--out", str(tmp_path / "p.png")]) == 2
    # exit code 3: a non-degenerate check that does not hold
    def always_fails(sample, chain):
        return [
            AuditVerdict(holds=False, margin=-1.0, degenerate=False, tolerance=1e-12)
            for _ in range(len(chain) - 1)
        ]

    monkeypatch.setattr(cli, "scan_monotonicity", always_fails)
    assert main(["verify", "--input", fixture]) == 3
    capsys.readouterr()
