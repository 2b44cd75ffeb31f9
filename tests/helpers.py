"""Shared test helpers."""

from __future__ import annotations

import importlib.machinery
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

from ginikit import cli
from ginikit._util import format_double
from ginikit.audit import (
    ParameterOrder, check_monotonicity, check_power_mean_bound, scan_monotonicity
)
from ginikit.errors import GinikitError
from ginikit.means import _PowerSums, gini_mean, identical_parameter_gini
from ginikit.mwd import (
    CSV_HEADER, MWDataset, generate_flory, load_mwd, polydispersity, save_mwd
)
from ginikit.sample import ExponentPair, PositiveSample


#: The hostile arguments of the public API sweep: wrong types, and numbers
#: where a dataset, report or container of samples goes.
HOSTILE = [
    None, "x", 1j, Fraction(1, 10**400), 10**400, -10**400, math.nan, math.inf, -1, 0, [],
    [1.0], np.array([]), np.float32(1.0), object(), (1.0,), True,
]


def ulps_apart(got: float, want: float) -> float:
    """Distance between two doubles in units in the last place of ``want``."""
    if got == want:
        return 0.0
    return abs(got - want) / math.ulp(abs(want))


def assert_within_ulps(got: float, want: float, max_ulps: float) -> None:
    dist = ulps_apart(got, want)
    assert dist <= max_ulps, f"{got!r} vs {want!r}: {dist:.1f} ulps (allowed {max_ulps})"


def log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def random_sample(
    rng: np.random.Generator,
    *,
    n_max: int = 16,
    value_lo: float = 1e-3,
    value_hi: float = 1e3,
    weighted: bool = True,
    n_min: int = 2,
) -> PositiveSample:
    """A random non-degenerate sample; values log-uniform, mild weights."""
    n = int(rng.integers(n_min, n_max + 1))
    values = log_uniform(rng, value_lo, value_hi, n)
    while np.all(values == values[0]):
        values = log_uniform(rng, value_lo, value_hi, n)
    weights = rng.uniform(0.5, 2.0, n) if weighted else None
    return PositiveSample(values, weights)


#: p of the G(p, p) route cases: zeros of both signs, subnormals, the
#: smallest normal, and magnitudes up to and past the exponent domain.
EQUAL_PAIR_EXPONENTS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-9, 0.5,
    -2.0, 30.0, 1e10, -1e300, 1e307, -1e308,
)

#: (p, q, r) of the power-mean-bound route cases: low side when q < 0,
#: high side otherwise; one inside the tangent gap, one past the domain.
POWER_MEAN_BRACKETINGS = (
    (1.0, -1.0, 1.0),
    (1.0, -1.0, 2.0),
    (1e-9, -1e-9, 1e-9),
    (30.0, -30.0, 30.0),
    (3.0, 1.0, 2.0),
    (1.0, 0.5, 1.0),
    (2.0, 5e-324, 1.0),
    (1e307, 1.0, 2.0),
)


def route_samples() -> list[PositiveSample]:
    """Uniform, CLI-like and 1e-25...1e25 samples, weighted and unweighted."""
    rng = np.random.default_rng(29)
    samples = [
        PositiveSample([7.0, 7.0]),
        PositiveSample([3.0, 3.0, 3.0], [1.0, 2.0, 0.5]),
        PositiveSample([1e-25]),
        PositiveSample([2.0, 2.0, 5.0, 5.0], [1.0, 3.0, 1.0, 3.0]),
    ]
    for weighted in (True, False):
        for _ in range(6):
            samples.append(random_sample(rng, weighted=weighted))
            samples.append(
                random_sample(rng, weighted=weighted, value_lo=1e-25, value_hi=1e25)
            )
    return samples


def _route_outcome(call) -> object:
    """A float as hex, a verdict's fields with hex floats, or the error raised."""
    try:
        result = call()
    except GinikitError as exc:
        return ["error", type(exc).__name__, str(exc)]
    if isinstance(result, float):
        return result.hex()
    return _verdict_fields(result)


def _verdict_fields(verdict) -> list[object]:
    """A verdict's margin and tolerance as hex, then its three flags."""
    return [
        verdict.margin.hex(), verdict.tolerance.hex(),
        verdict.holds, verdict.degenerate, verdict.weak,
    ]


def merged_route_outcomes() -> list[list[object]]:
    """``[route, sample, params, merged, direct]`` for every route case.

    ``identical_parameter_gini`` is held to ``gini_mean`` on the equal pair,
    and ``check_power_mean_bound`` to ``check_monotonicity`` on the
    bracketing :class:`ParameterOrder`.  Outcomes are JSON-ready, so a
    subprocess under another backend can report them.
    """
    rows: list[list[object]] = []
    for index, sample in enumerate(route_samples()):
        for p in EQUAL_PAIR_EXPONENTS:
            rows.append([
                "G(p,p)", index, [p],
                _route_outcome(lambda: identical_parameter_gini(sample, p)),
                _route_outcome(lambda: gini_mean(sample, ExponentPair(p, p))),
            ])
        for p, q, r in POWER_MEAN_BRACKETINGS:
            gini, power = ExponentPair(p, q), ExponentPair(r, 0.0)
            order = ParameterOrder(gini, power) if q < 0.0 else ParameterOrder(power, gini)
            rows.append([
                "power_mean_bound", index, [p, q, r],
                _route_outcome(lambda: check_power_mean_bound(sample, p, q, r)),
                _route_outcome(lambda: check_monotonicity(sample, order)),
            ])
    return rows


#: (p, q) of the custom pairs in :func:`memo_user_outcomes`: the CLI's
#: ``--b 0.5`` pairs and ``--custom 1.5:-1.5``, a signed-zero pair, and pairs
#: whose exponents the chain has formed already.
MEMO_CUSTOM_PAIRS = ((1.0, 0.5), (1.5, 0.5), (1.5, -1.5), (2.0, -0.0), (3.0, 1.0))


def memo_user_outcomes(two_species: Path, workdir: Path) -> list[list[object]]:
    """``[user, dataset, name, via memo, per pair]`` for each memo user.

    The users are ``polydispersity`` with :data:`MEMO_CUSTOM_PAIRS` at
    s = 0.7 and 1, and the marks of ``plot`` to CSV, read back from the
    file; each value is set beside ``gini_mean`` of its pair, evaluated on
    its own.  The datasets are ``two_species`` and a Flory distribution
    (m0 = 28, x = 0.99).  Floats are hex, so a subprocess under another
    backend can report them as JSON.  The plot writes each mark in
    shortest round-trip form, so the value read back is the mark's double.
    """
    flory = workdir / "flory.csv"
    save_mwd(generate_flory(28.0, 0.99), flory)
    rows: list[list[object]] = []
    for path in (two_species, flory):
        dataset = load_mwd(path)
        sample = dataset.to_sample()

        def per_pair(p: float, q: float) -> str:
            return gini_mean(sample, ExponentPair(p, q)).hex()

        for s in (0.7, 1.0):
            chain = {
                "Mn": (1.0, 0.0), "Mv": (1.0 + s, 1.0), "Mw": (2.0, 1.0), "Mz": (3.0, 2.0)
            }
            report = polydispersity(dataset, s=s, custom=MEMO_CUSTOM_PAIRS)
            for name, pair in chain.items():
                rows.append(
                    ["polydispersity", path.name, f"{name}(s={s})",
                     getattr(report, name).hex(), per_pair(*pair)]
                )
            for entry in report.custom:
                rows.append(
                    ["polydispersity", path.name, f"G({entry.p},{entry.q})",
                     entry.value.hex(), per_pair(entry.p, entry.q)]
                )
            out = workdir / "plot.csv"
            if cli.main(["plot", "--input", str(path), "--out", str(out), "--s", str(s)]):
                raise AssertionError("plot failed")
            lines = out.read_text(encoding="utf-8").splitlines()
            for line in lines[lines.index("mark,value") + 1 :]:
                name, value = line.split(",")
                rows.append(
                    ["plot", path.name, f"{name}(s={s})",
                     float(value).hex(), per_pair(*chain[name])]
                )
    return rows


#: ``--grid`` of the audit-memo cases whose chain holds two pairs inside the
#: tangent gap, one of them also below the oracle's tiny-gap threshold.
TANGENT_GAP_GRID = "1e-22:0,1e-9:0,1:0,2:0,3:1"


def audit_memo_cases() -> list[tuple[str, list[list[ExponentPair]], list[PositiveSample]]]:
    """``(name, chains, samples)`` of the audit-memo cases: the default grid
    and :data:`TANGENT_GAP_GRID` on ``verify --random 7 20``'s samples, and
    the default grid on a weighted uniform sample."""
    samples = cli._random_samples(7, 20)
    default = cli._parse_grid("default")
    return [
        ("default", default, samples),
        ("tangent-gap", cli._parse_grid(TANGENT_GAP_GRID), samples),
        ("uniform", default, [PositiveSample([3.0, 3.0, 3.0], [1.0, 2.0, 0.5])]),
    ]


def filled_memos(
    chains: list[list[ExponentPair]], samples: list[PositiveSample]
) -> list[_PowerSums]:
    """One memo per sample, filled by ``equivalence_report`` on the chains'
    distinct pairs, as ``verify --oracle`` fills them."""
    from ginikit.oracle import equivalence_report

    memos = [_PowerSums(sample) for sample in samples]
    pairs = list(dict.fromkeys(pair for chain in chains for pair in chain))
    assert equivalence_report(samples, pairs, _memos=memos).passed
    return memos


def audit_memo_outcomes() -> list[list[object]]:
    """``[case, sample, chain, link, via memo, fresh]`` for every audit link.

    Each case of :func:`audit_memo_cases` is scanned twice per sample and
    chain: with the sample's memo from :func:`filled_memos`, and without
    one.  Verdicts are JSON-ready, so a subprocess under another backend
    can report them.
    """
    rows: list[list[object]] = []
    for name, chains, samples in audit_memo_cases():
        memos = filled_memos(chains, samples)
        for index, (sample, sums) in enumerate(zip(samples, memos)):
            for chain_index, chain in enumerate(chains):
                via_memo = scan_monotonicity(sample, chain, _sums=sums)
                fresh = scan_monotonicity(sample, chain)
                for link, (a, b) in enumerate(zip(via_memo, fresh)):
                    rows.append([
                        name, index, chain_index, link,
                        _verdict_fields(a), _verdict_fields(b),
                    ])
    return rows


def compiled_kernel_file(src: Path) -> Path | None:
    """The compiled kernel built into ``src/ginikit``, or None if there is none."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = src / "ginikit" / f"_kernels{suffix}"
        if path.exists():
            return path
    return None


def env_importing_from(src: Path, **overrides: str) -> dict[str, str]:
    """``os.environ`` with ``src`` first on ``PYTHONPATH``, for a subprocess."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def reference_exp_moments(
    exponents: "list[float] | object", logs: "list[float] | object", shift: float
) -> tuple[float, float, float]:
    """``(total, mean, variance)`` of the weights u_i = exp(exponents[i] - shift).

    This is the pure kernel's loop as it was before the kernel formed the
    tilt itself and fused its first two passes: three passes, each with the
    ``abs`` branch test of the Neumaier step.  It is kept as the reference
    both kernels must match bit for bit.
    """
    exps = np.asarray(exponents, dtype=np.float64).tolist()
    lgs = np.asarray(logs, dtype=np.float64).tolist()
    u: list[float] = []
    s = 0.0
    c = 0.0
    for e in exps:
        x = math.exp(e - shift)
        u.append(x)
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    total = s + c

    s = 0.0
    c = 0.0
    for x, lg in zip(u, lgs):
        y = x * lg
        t = s + y
        if abs(s) >= abs(y):
            c += (s - t) + y
        else:
            c += (y - t) + s
        s = t
    mean = (s + c) / total

    s = 0.0
    c = 0.0
    for x, lg in zip(u, lgs):
        d = lg - mean
        y = x * d * d
        t = s + y
        if abs(s) >= abs(y):
            c += (s - t) + y
        else:
            c += (y - t) + s
        s = t
    variance = (s + c) / total

    return total, mean, variance


def reference_mwd_text(dataset: MWDataset, format: str) -> str:
    """The text ``save_mwd`` writes, formatted one row at a time.

    This is the writer as it was before rows were formatted a block at a
    time; it is kept as the reference the block writer must match byte for
    byte.
    """
    if format == "csv":
        rows = [CSV_HEADER]
        rows.extend(
            f"{format_double(m)},{format_double(a)}"
            for m, a in zip(dataset.masses, dataset.abundances)
        )
        return "\n".join(rows) + "\n"
    payload = {
        "label": dataset.label,
        "species": [
            {"molar_mass": float(m), "abundance": float(a)}
            for m, a in zip(dataset.masses, dataset.abundances)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


class OperatorFormLift:
    """The oracle's lifted sample as it was written with mpf operators.

    It forms the same terms, power sums and Gini means as
    :class:`ginikit.oracle._LiftedSample`, each through the mpf object
    operators, ``mp.fsum`` and ``mp.exp``; ``gini`` returns the mpf before
    its rounding to a double.  It is kept as the reference whose ``_mpf_``
    values the raw-tuple lift must equal bit for bit.  Build it inside the
    ``mp.workdps`` block it is evaluated in.
    """

    def __init__(self, sample: PositiveSample) -> None:
        self.values = [mp.mpf(float(v)) for v in sample.values]
        self.weights = [mp.mpf(float(w)) for w in sample.weights]
        self.roots = [mp.sqrt(v) for v in self.values]
        self.logs = [mp.log(v) for v in self.values]

    def terms(self, exponent: float) -> list[mp.mpf]:
        twice = 2.0 * exponent
        if twice.is_integer():
            k = int(twice)
            bases, power = (self.values, k // 2) if k % 2 == 0 else (self.roots, k)
            return [w * b**power for w, b in zip(self.weights, bases)]
        e = mp.mpf(exponent)
        return [w * mp.exp(e * lg) for w, lg in zip(self.weights, self.logs)]

    def power_sum(self, exponent: float) -> mp.mpf:
        return mp.fsum(self.terms(float(exponent)))

    def gini(self, params: ExponentPair) -> mp.mpf:
        if params.p == params.q:
            tilted = self.terms(params.p)
            return mp.exp(
                mp.fsum(t * lg for t, lg in zip(tilted, self.logs)) / mp.fsum(tilted)
            )
        ratio = self.power_sum(params.p) / self.power_sum(params.q)
        return ratio ** (1 / (mp.mpf(float(params.p)) - mp.mpf(float(params.q))))
