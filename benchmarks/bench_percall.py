"""Per-call cost of the small power sums behind ``verify``, two trees side by side.

Run from the repository root, with the tree to compare against (say the
parent commit) unpacked somewhere:

    mkdir ../base && git archive HEAD~1 | tar -x -C ../base
    GINIKIT_PURE=1 PYTHONPATH=src python benchmarks/bench_percall.py ../base/src

The package on ``PYTHONPATH`` is imported as ``ginikit`` ("change"), and the
one under the given ``src`` directory as ``ginikit_base`` ("base"), in the
same process.  ``GINIKIT_PURE=1`` times the pure kernel, as the end-to-end
benchmark runs it; without it each side runs whichever kernel it imports.
The layers are the ones a ``verify --random SEED N`` op runs, on samples
like the ones it draws (n from 2 to 16, values log-uniform in [1e-3, 1e3],
weights in [0.5, 2]):

- ``sample_n{2,4,8,16}``: one ``PositiveSample(values, weights)`` from fresh
  writeable arrays, which it copies;
- ``random_samples``: ``cli._random_samples(SEED, BATCH)``, the draws and
  samples of the op below, per sample;
- ``log_power_sum``: one call at each exponent of the default grid;
- ``secant_slope``: one call on each pair of the default grid;
- ``scan_monotonicity``: one scan of the default grid's first chain;
- ``verify_parse``: ``main``'s parse of that op's argv, with the command
  itself swapped for one that keeps the parsed arguments;
- ``verdict_lines``: the op's lines of one scan: the op with its samples
  drawn and every scan's verdicts formed beforehand, per scan;
- ``exponent_checks``: the number-parameter checks the workloads' ops run,
  once each: ``_parse_grid``'s ``ExponentPair`` objects for the default
  ``verify`` grid, and the ``mwd._pair`` pairs, each made an
  ``ExponentPair`` as ``mwd._evaluate`` does, of ``mwd-report --b 0.5``'s
  chain at s = 0.7 and its two calibration means;
- ``verify_op``: ``cli.main(["verify", "--random", "3", "200"])`` with its
  stdout captured, the op of the ``verify_audit`` workload.

Each round times every layer on both sides, alternating which side goes
first, and a row gives each side's median and best round in microseconds
per call.  Every output of the two sides is compared while it runs (floats
bit for bit, arrays by their bytes and flags, stdout by its text), so a
side that got faster by getting wrong fails loudly.  The last line of
output is one JSON object with the medians.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import struct
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

import ginikit
from ginikit._backend import backend_name

ROUNDS = 15
SAMPLE_SIZES = (2, 4, 8, 16)
#: Calls per timed batch of each layer; verify_op is one op.
BATCH = 200
SEED = 3
VERIFY_ARGV = ["verify", "--random", str(SEED), str(BATCH)]


def load_package(name: str, src: Path):
    """The ``ginikit`` package under ``src``, imported as ``name``."""
    init = src / "ginikit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no ginikit package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def float_bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def kernel_lists(s) -> list[bytes] | None:
    """The bits of the float lists a sample hands the pure loop, or None when
    its kernel reads the sorted arrays.  Either layout is read: the kernel
    input kept as ``_kernel_logs`` and ``_kernel_log_weights``, or the older
    ``_loop_lists``, None or a pair of lists, so a tree of either can be the
    base."""
    if hasattr(s, "_kernel_logs"):
        lists = (s._kernel_logs, s._kernel_log_weights)
        if lists[0] is s._sorted_log_values:
            return None
    else:
        lists = s._loop_lists
    return None if lists is None else [float_bits(*xs) for xs in lists]


def digest_samples(samples) -> list[tuple]:
    def arrays(s):
        return (
            s.values,
            s.weights,
            s._sorted_log_values,
            s._sorted_log_weights,
        )

    return [
        (
            [(a.tobytes(), a.dtype.str, a.flags.writeable) for a in arrays(s)],
            float_bits(s.min_value, s.max_value, s._max_abs_log_value),
            s.is_uniform,
            kernel_lists(s),
        )
        for s in samples
    ]


def digest_power_sums(results) -> list[bytes]:
    return [
        float_bits(r.p, r.log_sum, r.moment1, r.moment2, r.moment2_centered)
        for r in results
    ]


def digest_floats(results) -> bytes:
    return float_bits(*results)


def digest_scans(scans) -> list[tuple]:
    return [
        (v.holds, v.degenerate, float_bits(v.margin, v.tolerance))
        for verdicts in scans
        for v in verdicts
    ]


def digest_pairs(results) -> list[bytes]:
    digests = []
    for grid, named in results:
        pairs = [pair for chain in grid for pair in chain] + named
        digests.append(float_bits(*(e for pair in pairs for e in (pair.p, pair.q))))
    return digests


class Side:
    """One tree's package and the calls of each timed layer on it."""

    def __init__(self, package, inputs: dict[int, list[tuple[np.ndarray, np.ndarray]]]):
        self.package = package
        self.cli = importlib.import_module(f"{package.__name__}.cli")
        self.means = importlib.import_module(f"{package.__name__}.means")
        self.audit = importlib.import_module(f"{package.__name__}.audit")
        self.mwd = importlib.import_module(f"{package.__name__}.mwd")
        self.inputs = inputs
        self.samples = self.cli._random_samples(SEED, BATCH)
        pair_type = package.ExponentPair
        chains = self.cli.DEFAULT_GRID_CHAINS
        self.pairs = list(dict.fromkeys((p, q) for chain in chains for p, q in chain))
        self.exponents = sorted({e for pair in self.pairs for e in pair})
        self.chain = [pair_type(p, q) for p, q in chains[0]]
        grid = [[pair_type(p, q) for p, q in chain] for chain in chains]
        # every scan of the op, in the order the op makes them
        self.scanned = [
            self.audit.scan_monotonicity(sample, chain)
            for sample in self.samples
            for chain in grid
        ]

    def layers(self) -> dict[str, tuple]:
        """Each layer's timed call, the digest that compares its output, and
        the calls that one timed batch makes."""
        layers = {
            f"sample_n{n}": (lambda cases=cases: self.build(cases), digest_samples, BATCH)
            for n, cases in self.inputs.items()
        }
        layers["random_samples"] = (
            lambda: self.cli._random_samples(SEED, BATCH), digest_samples, BATCH
        )
        layers["log_power_sum"] = (
            self.log_power_sums, digest_power_sums, BATCH * len(self.exponents)
        )
        layers["secant_slope"] = (self.secant_slopes, digest_floats, BATCH * len(self.pairs))
        layers["scan_monotonicity"] = (self.scans, digest_scans, BATCH)
        layers["verify_parse"] = (self.verify_parses, lambda result: result, BATCH)
        layers["verdict_lines"] = (self.verdict_lines, lambda result: result, len(self.scanned))
        layers["exponent_checks"] = (self.exponent_checks, digest_pairs, BATCH)
        layers["verify_op"] = (self.verify_op, lambda result: result, 1)
        return layers

    def build(self, cases):
        make = self.package.PositiveSample
        return [make(v, w) for v, w in cases]

    def log_power_sums(self):
        lps = self.means.log_power_sum
        return [lps(s, e) for s in self.samples for e in self.exponents]

    def secant_slopes(self):
        slope = self.means.secant_slope
        return [slope(s, p, q) for s in self.samples for p, q in self.pairs]

    def scans(self):
        scan = self.audit.scan_monotonicity
        return [scan(s, self.chain) for s in self.samples]

    def verify_parses(self):
        parsed = []

        def command(args) -> int:
            parsed.append({k: v for k, v in vars(args).items() if k != "func"})
            return 0

        with mock.patch.object(self.cli, "_cmd_verify", command):
            for _ in range(BATCH):
                self.cli.main(VERIFY_ARGV)
        return parsed

    def verdict_lines(self):
        scans = iter(self.scanned)
        with mock.patch.object(self.cli, "_random_samples", lambda seed, count: self.samples), \
                mock.patch.object(self.cli, "scan_monotonicity", lambda *args: next(scans)):
            return self.verify_op()

    def exponent_checks(self):
        pair_type, named_pair = self.package.ExponentPair, self.mwd._pair
        report = [(name, 0.7) for name in self.mwd._CHAIN]
        report += [("hydrodynamic", 0.5), ("sedimentation", 0.5)]
        return [
            (
                self.cli._parse_grid("default"),
                [pair_type(*named_pair(name, value)) for name, value in report],
            )
            for _ in range(BATCH)
        ]

    def verify_op(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(VERIFY_ARGV)
        return rc, out.getvalue()


def timed(call) -> tuple[float, object]:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    base_pkg = load_package("ginikit_base", Path(sys.argv[1]).resolve())
    base_backend = sys.modules["ginikit_base._backend"].backend_name()
    if base_backend != backend_name():
        raise SystemExit(f"backends differ: base {base_backend}, change {backend_name()}")

    rng = np.random.default_rng(2024)
    # fresh writeable arrays per call, as verify --random draws them; each
    # side gets its own copies, since the change must not rely on aliasing
    draws = {
        n: [(10.0 ** rng.uniform(-3.0, 3.0, n), rng.uniform(0.5, 2.0, n)) for _ in range(BATCH)]
        for n in SAMPLE_SIZES
    }
    sides = {
        name: Side(pkg, {n: [(v.copy(), w.copy()) for v, w in cases] for n, cases in draws.items()})
        for name, pkg in (("base", base_pkg), ("change", ginikit))
    }
    names = list(sides["change"].layers())
    times: dict[str, dict[str, list[float]]] = {n: {"base": [], "change": []} for n in names}
    for round_index in range(ROUNDS + 1):
        order = ("base", "change") if round_index % 2 else ("change", "base")
        for name in names:
            digests = {}
            for side in order:
                call, digest, calls = sides[side].layers()[name]
                elapsed, result = timed(call)
                digests[side] = digest(result)
                # round 0 warms both sides up and is not counted
                if round_index:
                    times[name][side].append(elapsed / calls)
            if digests["base"] != digests["change"]:
                raise AssertionError(f"{name}: base and change outputs differ")

    print(f"backend {backend_name()}, {ROUNDS} rounds, microseconds per call")
    print(f"{'layer':>18} {'base med':>10} {'base min':>10} {'chg med':>10} {'chg min':>10} {'change':>8}")
    medians: dict[str, dict[str, float]] = {}
    for name in names:
        row = {side: statistics.median(times[name][side]) * 1e6 for side in ("base", "change")}
        best = {side: min(times[name][side]) * 1e6 for side in ("base", "change")}
        medians[name] = {side: round(value, 3) for side, value in row.items()}
        pct = (row["change"] / row["base"] - 1.0) * 100.0
        print(
            f"{name:>18} {row['base']:>10.2f} {best['base']:>10.2f} "
            f"{row['change']:>10.2f} {best['change']:>10.2f} {pct:>+7.1f}%"
        )
    print("outputs identical on both sides for every call")
    print(json.dumps({"backend": backend_name(), "rounds": ROUNDS, "median_us": medians}))


if __name__ == "__main__":
    main()
