"""Benchmark the mpmath oracle: ``equivalence_report`` and its term formation.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_oracle.py

Times ``equivalence_report`` on the CLI's default audit grid (its six
distinct pairs, as ``verify --oracle`` passes them) over the seeded samples
of ``verify --random SEED 200`` for seeds 0-4: as the package runs it, which
forks a child that computes references from the last sample back when two
CPUs are usable (the header line gives their number), and in one process,
with one usable CPU; then the fast side alone (``gini_mean`` over the same
pairs), so the oracle's own share in one process is the difference.  The
``verify_op`` rows time the whole ``verify --random SEED 100 --oracle
--report`` command in this process, for the same seeds: as the package runs
it, which forks a child for the references while this process forms the
fast side, the audit and its report rows, and with one usable CPU.  The
``finish`` row times the last step of a reference alone: the ratio of two
power sums, raised to 1/(p - q) and rounded to a double, for every pair on
lifts at 50 digits whose power sums were formed before the timing.  Then
it times the forming of a lifted sample's terms at 50 digits, per term,
for three groups of exponents, each on a fresh lift so that a group pays
for the square roots or logs it needs:

- integer exponents of the default grid (-1, 0, 1, 2, 3);
- odd multiples of 1/2 from it (1.5, -1.5);
- general exponents (0.3, -1.7, 1e-5).

A lifted sample holds raw ``_mpf_`` values and forms its terms through
the ``mpmath.libmp`` calls the mpf operators make, so a term's time is
those calls' own, with no mpf object built per operation.  Every report
must pass, so an oracle that got faster by getting wrong fails loudly.
Each row gives the median and the minimum of ``REPEATS`` rounds, and the
``finish`` and term rows the median per (sample, pair) or per term.  The
last line of output is one JSON object with the medians.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

import mpmath as mp

from ginikit import _util, cli, oracle
from ginikit._backend import backend_name
from ginikit.cli import DEFAULT_GRID_CHAINS, _random_samples
from ginikit.means import gini_mean
from ginikit.sample import ExponentPair

SEEDS = range(5)
SAMPLES_PER_SEED = 200
#: Samples of the ``verify_op`` rows' command.
VERIFY_SAMPLES = 100
REPEATS = 5
#: The pairs ``verify --oracle`` hands to ``equivalence_report``.
GRID = list(
    dict.fromkeys(ExponentPair(p, q) for chain in DEFAULT_GRID_CHAINS for p, q in chain)
)
TERM_GROUPS = {
    "integer": (-1.0, 0.0, 1.0, 2.0, 3.0),
    "half_integer": (1.5, -1.5),
    "general": (0.3, -1.7, 1e-5),
}


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def report(samples) -> None:
    summary = oracle.equivalence_report(samples, GRID)
    if not summary.passed or summary.cases != len(GRID) * len(samples):
        raise AssertionError(f"oracle report failed: {summary}")


def one_process(samples) -> None:
    with mock.patch.object(_util, "_usable_cpus", lambda: 1):
        report(samples)


def fast_side(samples) -> None:
    for sample in samples:
        for pair in GRID:
            gini_mean(sample, pair)


def verify_op(seed: int, report: Path) -> None:
    """``verify --random SEED 100 --oracle --report`` in this process."""
    argv = ["verify", "--random", str(seed), str(VERIFY_SAMPLES), "--oracle"]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main([*argv, "--report", str(report)])
    if code != 0 or not stdout.getvalue().endswith("failed=0\n"):
        raise AssertionError(f"verify --oracle failed on seed {seed}: exit {code}")


def verify_op_one_process(seed: int, report: Path) -> None:
    with mock.patch.object(_util, "_usable_cpus", lambda: 1):
        verify_op(seed, report)


def summed_lifts(samples) -> list:
    """Each sample lifted at 50 digits, with the power sums of every pair formed."""
    with mp.workdps(50):
        lifts = [oracle._LiftedSample(sample) for sample in samples]
        for lifted in lifts:
            for pair in GRID:
                lifted.power_sum(pair.p)
                lifted.power_sum(pair.q)
    return lifts


def finish(lifts) -> None:
    # no pair of the default grid has p == q, so each call takes the ratio
    for lifted in lifts:
        for pair in GRID:
            lifted.gini(pair)


def form_terms(samples, exponents) -> None:
    with mp.workdps(50):
        for sample in samples:
            lifted = oracle._LiftedSample(sample)
            for e in exponents:
                lifted.terms(e)


def main() -> None:
    batches = [_random_samples(seed, SAMPLES_PER_SEED) for seed in SEEDS]
    values = sum(sample.n for batch in batches for sample in batch)
    print(
        f"backend {backend_name()}, mpmath {mp.__version__} ({mp.libmp.BACKEND}), "
        f"{_util._usable_cpus()} usable CPUs, "
        f"{len(GRID)} pairs on {len(batches)}x{SAMPLES_PER_SEED} samples, {REPEATS} rounds"
    )
    lifts = [summed_lifts(batch) for batch in batches]
    workdir = tempfile.TemporaryDirectory()
    report_path = Path(workdir.name) / "report.json"
    # name: (call, its input per batch, items per batch for the last column)
    rows = {
        "equivalence_report": (report, batches, None),
        "one_process": (one_process, batches, None),
        "fast_side": (fast_side, batches, None),
        "verify_op": (lambda seed: verify_op(seed, report_path), SEEDS, None),
        "verify_op_one_process": (
            lambda seed: verify_op_one_process(seed, report_path), SEEDS, None
        ),
        "finish": (finish, lifts, SAMPLES_PER_SEED * len(GRID)),
    }
    for name, exponents in TERM_GROUPS.items():
        rows[f"terms_{name}"] = (
            lambda batch, es=exponents: form_terms(batch, es),
            batches,
            values / len(batches) * len(exponents),
        )
    medians: dict[str, float] = {}
    print(f"{'layer':>20} {'median':>10} {'min':>10} {'per item':>10}")
    for name, (call, inputs, items) in rows.items():
        times = [
            statistics.median(timed(lambda: call(batch)) for batch in inputs)
            for _ in range(REPEATS)
        ]
        median = statistics.median(times)
        medians[f"{name}_s"] = median
        per_item = "" if items is None else f"{median / items * 1e9:>8.0f}ns"
        print(f"{name:>20} {median * 1e3:>8.1f}ms {min(times) * 1e3:>8.1f}ms {per_item:>10}")
    workdir.cleanup()
    medians["oracle_share_s"] = medians["one_process_s"] - medians["fast_side_s"]
    print(f"{'oracle share':>20} {medians['oracle_share_s'] * 1e3:>8.1f}ms")
    print(json.dumps({
        "backend": backend_name(), "usable_cpus": _util._usable_cpus(), "repeats": REPEATS,
        "median_s": medians,
    }))


if __name__ == "__main__":
    main()
