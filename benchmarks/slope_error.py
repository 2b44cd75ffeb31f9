"""Measure the secant slope's error against the oracle, by exponent gap.

Run from the repository root:

    PYTHONPATH=src python benchmarks/slope_error.py

For each gap h it draws ``SAMPLES`` seeded samples inside the oracle's
certified domain (n 2-8, values log-uniform in 1e-30...1e30, half of them
weighted with weights in 0.5...2, q uniform so that both exponents lie in
[-30, 30], p = q + h) and compares ``gini_mean`` with ``oracle_gini``.  All
of these gaps are far above the tangent gap, so every case is a secant.
Per gap it prints

- the worst relative error;
- the largest ratio of the error to eps * max(|ln S_p|, |ln S_q|) / h, the
  rounding of the two log power sums divided by the gap (eps = 2**-52);
- the largest ratio of the error to h * spread, where spread is
  max ln a - min ln a;
- how many cases miss 1e-12, and the smallest h * spread among them.

A bounded first ratio and a scattered second one say that the error follows
eps * |ln S| / h, not h * spread.  The last block does the same for the
golden Mv pair, G(1.7, 1) of ``tests/data/two_species.csv``, which must stay
on the secant.  The last line of output is one JSON object with the numbers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ginikit.means import gini_mean, log_power_sum
from ginikit.mwd import load_mwd
from ginikit.oracle import MAX_ABS_EXPONENT, MAX_VALUE, MIN_VALUE, oracle_gini
from ginikit.sample import ExponentPair, PositiveSample

GAPS = (2.0, 1.0, 0.5, 0.1)
SAMPLES = 300
SEED = 17
EPS = math.ulp(1.0)
TARGET = 1e-12


def _case(sample: PositiveSample, pair: ExponentPair) -> dict[str, float]:
    fast = gini_mean(sample, pair)
    reference = oracle_gini(sample, pair)
    error = abs(fast - reference) / reference
    h = pair.p - pair.q
    log_sums = max(abs(log_power_sum(sample, e).log_sum) for e in (pair.p, pair.q))
    spread = float(np.ptp(np.log(sample.values)))
    return {
        "error": error,
        "rounding_scale": EPS * log_sums / h,
        "h_spread": h * spread,
    }


def measure_gap(h: float, rng: np.random.Generator) -> dict[str, float]:
    cases = []
    for index in range(SAMPLES):
        n = int(rng.integers(2, 9))
        values = 10.0 ** rng.uniform(math.log10(MIN_VALUE), math.log10(MAX_VALUE), n)
        weights = rng.uniform(0.5, 2.0, n) if index % 2 else None
        q = float(rng.uniform(-MAX_ABS_EXPONENT, MAX_ABS_EXPONENT - h))
        cases.append(_case(PositiveSample(values, weights), ExponentPair(q + h, q)))
    missed = [c for c in cases if c["error"] > TARGET]
    return {
        "gap": h,
        "cases": len(cases),
        "worst_rel_error": max(c["error"] for c in cases),
        "max_error_over_rounding_scale": max(
            c["error"] / c["rounding_scale"] for c in cases
        ),
        "max_error_over_h_spread": max(c["error"] / c["h_spread"] for c in cases),
        "missed_target": len(missed),
        "min_h_spread_missed": min((c["h_spread"] for c in missed), default=None),
    }


def main() -> None:
    rng = np.random.default_rng(SEED)
    rows = [measure_gap(h, rng) for h in GAPS]
    print(
        f"{'gap':>5} {'worst error':>12} {'err/(eps|lnS|/h)':>17} "
        f"{'err/(h spread)':>15} {'> 1e-12':>8} {'min h spread':>13}"
    )
    for row in rows:
        least = row["min_h_spread_missed"]
        print(
            f"{row['gap']:5g} {row['worst_rel_error']:12.2e} "
            f"{row['max_error_over_rounding_scale']:17.2f} "
            f"{row['max_error_over_h_spread']:15.2e} {row['missed_target']:8d} "
            f"{'-' if least is None else f'{least:.3g}':>13}"
        )
    golden = _case(load_mwd("tests/data/two_species.csv").to_sample(), ExponentPair(1.7, 1.0))
    print(
        f"golden Mv G(1.7, 1): error {golden['error']:.2e}, "
        f"eps|lnS|/h {golden['rounding_scale']:.2e}, h spread {golden['h_spread']:.3f}"
    )
    print(json.dumps({"gaps": rows, "golden_mv": golden}))


if __name__ == "__main__":
    main()
