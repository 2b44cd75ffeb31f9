"""Shared test helpers."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator
from unittest import mock

import mpmath as mp
import numpy as np

from ginikit import _backend, _util, cli, mwd, oracle
from ginikit._kernels_py import VECTOR_MIN_N
from ginikit._util import format_double
from ginikit.audit import (
    ParameterOrder, check_monotonicity, check_power_mean_bound, scan_monotonicity
)
from ginikit.errors import GinikitError, ParameterDomainError
from ginikit.means import _PowerSums, gini_mean, identical_parameter_gini
from ginikit.mwd import (
    CSV_HEADER, MWDataset, generate_flory, load_mwd, polydispersity, save_mwd
)
from ginikit.sample import ExponentPair, PositiveSample, _sample_batch


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


#: The distinct pairs of the CLI's default grid, as ``verify --oracle`` passes them.
ORACLE_GRID = list(
    dict.fromkeys(ExponentPair(p, q) for chain in cli.DEFAULT_GRID_CHAINS for p, q in chain)
)
#: Samples of each split case: their sizes times the grid's pairs sum to
#: about 2,000, past ``oracle._FORK_MIN_TERMS``.
SPLIT_SAMPLES = 40
#: Where a split case puts its fault: in the half that the child computes.
SPLIT_FAULT_INDEX = 35
#: Samples that the child of ``child-fails-after-some`` sends before it fails.
SPLIT_SENT = 5
#: Cases of :func:`oracle_split_outcome`.  Each but ``child-lags`` may run
#: with the child joined before the report starts.
SPLIT_CASES = (
    "seed-1", "seed-2", "seed-3", "not-a-sample", "value-out-of-range", "too-many-values",
    "fast-side-raises", "child-fails-at-once", "child-fails-after-some", "child-lags",
)


def _split_case(name: str) -> tuple[list[object], list[object]]:
    """The samples of split case ``name``, and the patches it runs under."""
    seed = int(name.rsplit("-", 1)[1]) if name.startswith("seed-") else 1
    samples: list[object] = list(cli._random_samples(seed, SPLIT_SAMPLES))
    patches: list[object] = []
    if name == "not-a-sample":
        samples[SPLIT_FAULT_INDEX] = [1.0, 2.0]
    elif name == "value-out-of-range":
        samples[SPLIT_FAULT_INDEX] = PositiveSample([1.0, 1e31])
    elif name == "too-many-values":
        samples[SPLIT_FAULT_INDEX] = PositiveSample(np.linspace(1.0, 2.0, oracle.MAX_N + 1))
    elif name == "fast-side-raises":
        faulty, real_gini = samples[SPLIT_FAULT_INDEX], _PowerSums.gini

        def gini(sums: _PowerSums, params: ExponentPair) -> float:
            if sums.sample is faulty and params == ORACLE_GRID[2]:
                raise ParameterDomainError("the fast side refused")
            return real_gini(sums, params)

        patches.append(mock.patch.object(_PowerSums, "gini", gini))
    elif name.startswith("child-"):
        patches.append(child_fault(name))
    return samples, patches


def child_fault(name: str, sent: int = SPLIT_SENT) -> contextlib.AbstractContextManager:
    """A patch of the child of ``_util._from_both_ends``: ``child-lags``
    sleeps before it sends anything, ``child-fails-at-once`` raises at once,
    and ``child-fails-after-some`` raises after it has sent the last
    ``sent`` items."""
    real_send = _util._send_from_the_back

    def send(count, payload, sink) -> None:
        if name == "child-lags":
            time.sleep(60)
        if name == "child-fails-after-some":
            last = count - sent
            real_send(count, lambda index: payload(index) if index >= last else None, sink)
        raise RuntimeError("the child failed")

    return mock.patch.object(_util, "_send_from_the_back", send)


@contextlib.contextmanager
def two_cpus(joined: bool) -> Iterator[list[int]]:
    """Two usable CPUs whatever the host has.  With ``joined``, every child
    that ``_util._from_both_ends`` starts has exited before the caller's
    block runs, so it has sent all it ever will; the list gets each one's
    exit status, which is minus the signal number when a signal ended it.

    The wait is in ``_util._keep_off_cpu``, the parent's first call that
    has the child's pid; it leaves the child for ``_from_both_ends`` to reap.
    """
    statuses: list[int] = []
    real_keep_off_cpu = _util._keep_off_cpu

    def keep_off_cpu(pid: int, cpu: int | None) -> None:
        real_keep_off_cpu(pid, cpu)
        if joined:
            result = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            exited = result.si_code == os.CLD_EXITED
            statuses.append(result.si_status if exited else -result.si_status)

    with mock.patch.object(_util, "_usable_cpus", lambda: 2):
        with mock.patch.object(_util, "_keep_off_cpu", keep_off_cpu):
            yield statuses


def children_left() -> bool:
    """True when this process has a child that has not been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _split_summary(samples: list[object]) -> list[object]:
    """The summary of ``samples`` on :data:`ORACLE_GRID`, doubles as hex, or
    the class and message of its error."""
    try:
        summary = oracle.equivalence_report(samples, ORACLE_GRID)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    params = summary.worst_params
    return [
        summary.cases, summary.max_rel_error.hex(), summary.worst_index,
        None if params is None else [params.p.hex(), params.q.hex()], summary.passed,
    ]


def split_outcome(
    case: Callable[[], tuple[Callable[[], object], list[object]]],
    joined: bool,
    counted: tuple[object, str],
) -> dict[str, object]:
    """A split case run in one process and with a forked child.

    ``case()`` gives the case's call and the patches it runs under, fresh
    for each run.  The one-process run has one usable CPU; the forked one
    two, whatever the host has.  With ``joined``, each child has exited
    before the caller's block runs, so it has sent all it ever will: the
    result then also holds the children's exit statuses and the number of
    calls of ``counted`` (a module and the name of a function in it) made in
    this process; the child's calls count in the child.  JSON-ready, so a
    subprocess under another backend can report it.
    """
    open_fds = open_fd_count()
    call, patches = case()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        stack.enter_context(mock.patch.object(_util, "_usable_cpus", lambda: 1))
        one_process = call()
    module, name = counted
    real = getattr(module, name)
    calls_here: list[None] = []

    def counting(*args, **kwargs):
        calls_here.append(None)
        return real(*args, **kwargs)

    call, patches = case()
    started = time.monotonic()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        statuses = stack.enter_context(two_cpus(joined))
        stack.enter_context(mock.patch.object(module, name, counting))
        two_processes = call()
    outcome: dict[str, object] = {
        "one_process": one_process,
        "forked": two_processes,
        "seconds": time.monotonic() - started,
        "open_fds_added": open_fd_count() - open_fds,
        "children_left": children_left(),
    }
    if joined:
        outcome["child_statuses"] = statuses
        outcome["computed_here"] = len(calls_here)
    return outcome


def oracle_split_outcome(name: str, joined: bool) -> dict[str, object]:
    """Oracle split case ``name`` (see :func:`split_outcome`); its count is
    of the samples whose references this process computed."""

    def case():
        samples, patches = _split_case(name)
        return (lambda: _split_summary(samples)), patches

    return split_outcome(case, joined, (oracle, "_references"))


def oracle_split_outcomes() -> list[list[object]]:
    """``[case, joined, outcome]`` for every split case, joined and not."""
    return [
        [name, joined, oracle_split_outcome(name, joined)]
        for name in SPLIT_CASES
        for joined in (True, False)
        if not (joined and name == "child-lags")
    ]


#: The CSV file of the load split cases: its data rows, the characters per
#: block they are parsed in (20 blocks), and the line, counted from 1,
#: where a faulty case puts its row: in block 16, which the child parses.
LOAD_SPLIT_ROWS = 120
LOAD_SPLIT_BLOCK_CHARS = 200
LOAD_FAULT_LINE = 101
#: The row each faulty load split case puts at :data:`LOAD_FAULT_LINE`.
LOAD_FAULTS = {
    "empty-field": "1,",
    "bare-exponent": "1e,2",
    "third-column": "1,2,3",
    "zero": "0,2",
    "negative": "-1,2",
    "blank-line": "",
}
LOAD_SPLIT_CASES = (
    "plain", *LOAD_FAULTS, "child-fails-at-once", "child-fails-after-some", "child-lags"
)


def _outcome_of(call: Callable[[], object]) -> object:
    """``call()``, or the class and message of the package error it raised."""
    try:
        return call()
    except GinikitError as exc:
        return [type(exc).__name__, str(exc)]


def _loaded_bytes(path: Path) -> list[str]:
    dataset = load_mwd(path)
    return [dataset.masses.tobytes().hex(), dataset.abundances.tobytes().hex()]


def load_split_outcome(name: str, joined: bool, workdir: Path) -> dict[str, object]:
    """Load split case ``name`` (see :func:`split_outcome`); its count is of
    the blocks this process parsed.  The outcome also holds the file's
    blocks and the block of its fault line."""
    rng = np.random.default_rng(27)
    rows = zip(rng.uniform(1e2, 1e6, LOAD_SPLIT_ROWS).tolist(),
               rng.uniform(1e-6, 1.0, LOAD_SPLIT_ROWS).tolist())
    lines = [CSV_HEADER, *(f"{m!r},{a!r}" for m, a in rows)]
    if name in LOAD_FAULTS:
        lines[LOAD_FAULT_LINE - 1] = LOAD_FAULTS[name]
    text = "\n".join(lines) + "\n"
    path = workdir / f"{name}.csv"
    path.write_text(text, encoding="utf-8")

    def case():
        patches = [
            mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", LOAD_SPLIT_BLOCK_CHARS),
            mock.patch.object(mwd, "_FORK_MIN_CHARS", 0),
        ]
        if name.startswith("child-"):
            patches.append(child_fault(name))
        return (lambda: _outcome_of(lambda: _loaded_bytes(path))), patches

    outcome = split_outcome(case, joined, (mwd, "_plain_rows"))
    with mock.patch.object(mwd, "_PARSE_BLOCK_CHARS", LOAD_SPLIT_BLOCK_CHARS):
        cuts = mwd._block_cuts(text, len(CSV_HEADER) + 1)
    fault = len("".join(line + "\n" for line in lines[: LOAD_FAULT_LINE - 1]))
    outcome["blocks"] = len(cuts) - 1
    outcome["fault_block"] = sum(cut <= fault for cut in cuts) - 1
    return outcome


#: The averages split cases: the CLI's report (``--b 0.5 --custom
#: 1.5:-1.5``, 8 distinct exponents) and plot (5) of a 2,749-species Flory
#: file, a report with an exponent too large for the sample in the child's
#: half, the report of an iterator ``custom`` and then of a list of the
#: same pairs, the CLI's report with a tangent pair (``--custom 2:2``), the
#: report of a uniform dataset of the file's size, and the report under
#: each fault of the child.
AVERAGE_SPLIT_CASES = (
    "report-json", "report-text", "plot-svg", "plot-csv", "too-large-exponent",
    "custom-iterator", "custom-tangent", "uniform",
    "child-fails-at-once", "child-fails-after-some", "child-lags",
)
#: Custom pairs whose distinct exponents, after the chain's 1, 0, 1.7, 2
#: and 3, are 0.5, 0.25, 1e308, 2.5 and 1.5: the child, which starts from
#: the last, reaches 1e308 third, and this process eighth.
TOO_LARGE_CUSTOM = [(0.5, 0.25), (1e308, 0.0), (2.5, 1.5)]


def _cli_output(argv: list[str], out: Path | None) -> list[object]:
    """Exit code and stdout of one CLI call, then the text it wrote to ``out``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return [code, stdout.getvalue(), None if out is None else out.read_text(encoding="utf-8")]


def average_split_outcome(name: str, joined: bool, workdir: Path) -> dict[str, object]:
    """Averages split case ``name`` (see :func:`split_outcome`); its count
    is of the kernel calls this process made.  Both splits of the file's
    reader and of the averages run at any size."""
    path = workdir / "flory.csv"
    if not path.exists():
        save_mwd(generate_flory(28.0, 0.99), path)
    report = ["mwd-report", "--input", str(path), "--b", "0.5", "--custom", "1.5:-1.5"]
    kind, _, fmt = name.partition("-")
    if name == "too-large-exponent":
        dataset = load_mwd(path)
        call = lambda: _outcome_of(lambda: repr(polydispersity(dataset, 0.7, TOO_LARGE_CUSTOM)))
    elif name == "custom-iterator":
        dataset = load_mwd(path)
        pairs = [(0.5, 0.25), (1.5, -1.5)]
        call = lambda: [repr(polydispersity(dataset, 0.7, c)) for c in (iter(pairs), pairs)]
    elif name == "custom-tangent":
        call = lambda: _cli_output([*report[:-2], "--custom", "2:2", "--format", "json"], None)
    elif name == "uniform":
        masses = np.full(load_mwd(path).n, 500.0)
        dataset = MWDataset(masses=masses, abundances=np.linspace(1.0, 2.0, masses.size))
        call = lambda: repr(polydispersity(dataset, 0.7, [(1.5, -1.5)]))
    elif kind == "plot":
        out = workdir / f"plot.{fmt}"
        call = lambda: _cli_output(["plot", "--input", str(path), "--out", str(out)], out)
    else:
        fmt = fmt if kind == "report" else "json"
        call = lambda: _cli_output([*report, "--format", fmt], None)

    def case():
        patches = [
            mock.patch.object(mwd, "_FORK_MIN_TERMS", dict.fromkeys(mwd._FORK_MIN_TERMS, 0)),
            mock.patch.object(mwd, "_FORK_MIN_CHARS", 0),
        ]
        if name.startswith("child-"):
            patches.append(child_fault(name))
        return call, patches

    return split_outcome(case, joined, (_backend, "exp_moments"))


def split_dataset(n: int) -> MWDataset:
    """``n`` rows with integral doubles among the masses and the abundances
    all through the file, and 1e16 at row n // 2, beside fields with no
    ".0" to strip."""
    rng = np.random.default_rng(n)
    masses = np.where(np.arange(n) % 3 == 0, 28.0, 104.37) * np.arange(1, n + 1)
    abundances = rng.random(n)
    abundances[::5] = np.floor(abundances[::5] * 1e6) + 1.0
    abundances[n // 2] = 1e16
    return MWDataset(masses=masses, abundances=abundances, label="Mw ≈ 1.2×10⁵ g/mol")


#: Rows per block of the save split files, and their rows: three whole
#: blocks, and four blocks with a partial last one.
SAVE_SPLIT_BLOCK_ROWS = 3
SAVE_SPLIT_ROWS = (9, 10)


def _save_split_cases() -> dict[str, tuple[str, int, str, int]]:
    """The save split cases by name: the format, the rows, the fault of the
    child, and the blocks it sends before it fails.  ``child-sends-k`` cases
    run for every k from none to all the file's blocks, so a joined child
    puts the meeting point at every block."""
    cases = {}
    for fmt in ("csv", "json"):
        for n in SAVE_SPLIT_ROWS:
            for fault in ("plain", "child-fails-at-once", "child-lags"):
                cases[f"{fmt}-{n}-{fault}"] = (fmt, n, fault, SPLIT_SENT)
            for sent in range(-(-n // SAVE_SPLIT_BLOCK_ROWS) + 1):
                cases[f"{fmt}-{n}-child-sends-{sent}"] = (fmt, n, "child-fails-after-some", sent)
    return cases


SAVE_SPLIT_CASES = _save_split_cases()


def save_split_outcome(name: str, joined: bool, workdir: Path) -> dict[str, object]:
    """Save split case ``name`` (see :func:`split_outcome`): each run gives the
    text written and the names in the file's directory; its count is of the
    blocks this process formatted."""
    fmt, n, fault, sent = SAVE_SPLIT_CASES[name]
    dataset = split_dataset(n)
    directory = workdir / name
    directory.mkdir(exist_ok=True)
    path = directory / f"distribution.{fmt}"

    def written() -> list[object]:
        save_mwd(dataset, path)
        return [path.read_text(encoding="utf-8"), sorted(os.listdir(directory))]

    def case():
        patches = [
            mock.patch.object(mwd, "_WRITE_BLOCK_ROWS", SAVE_SPLIT_BLOCK_ROWS),
            mock.patch.object(mwd, "_FORK_MIN_ROWS", 0),
        ]
        if fault.startswith("child-"):
            patches.append(child_fault(fault, sent))
        return written, patches

    return split_outcome(case, joined, (mwd, f"_{fmt}_block"))


def mwd_split_outcomes(kind: str, workdir: Path) -> list[list[object]]:
    """``[case, joined, outcome]`` for every ``"load"``, ``"save"`` or
    ``"averages"`` split case, joined and not."""
    names, run = {
        "load": (LOAD_SPLIT_CASES, load_split_outcome),
        "save": (SAVE_SPLIT_CASES, save_split_outcome),
        "averages": (AVERAGE_SPLIT_CASES, average_split_outcome),
    }[kind]
    return [
        [name, joined, run(name, joined, workdir)]
        for name in names
        for joined in (True, False)
        if not (joined and name.endswith("child-lags"))
    ]


def split_outcomes_under_both_backends(
    compiled_src: Path, kind: str, workdir: Path
) -> dict[str, list[list[object]]]:
    """``mwd_split_outcomes(kind, workdir)``, or ``oracle_split_outcomes()``
    for ``"oracle"``, run in a subprocess under each kernel backend."""
    call = "oracle_split_outcomes()" if kind == "oracle" else (
        f"mwd_split_outcomes({kind!r}, pathlib.Path({str(workdir)!r}))"
    )
    script = (
        "import json, pathlib, ginikit, helpers; print(ginikit.backend_name()); "
        f"print(json.dumps(helpers.{call}))"
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
    return runs


def sample_bits(sample: PositiveSample) -> tuple:
    """Every slot of ``sample``: arrays by dtype, bytes and flags, floats by
    their bits (so -0.0 is not 0.0), and the kernel input: None when it is
    the sorted log arrays themselves, else the loop lists entry by entry."""
    arrays = (
        sample.values, sample.weights, sample._sorted_log_values, sample._sorted_log_weights
    )
    kernel_input = (sample._kernel_logs, sample._kernel_log_weights)
    return (
        [(a.dtype.str, a.tobytes(), a.flags.writeable, a.flags.c_contiguous) for a in arrays],
        np.array([sample.min_value, sample.max_value, sample._max_abs_log_value]).tobytes(),
        [type(x) for x in (sample.min_value, sample.max_value, sample._max_abs_log_value)],
        sample.is_uniform,
        None if all(x is a for x, a in zip(kernel_input, arrays[2:])) else [
            ({type(x) for x in xs}, np.array(xs, dtype=np.float64).tobytes())
            for xs in kernel_input
        ],
    )


#: Run lengths of :func:`batch_runs`: 1, small ones, both sides of
#: ``VECTOR_MIN_N`` and one past it.
BATCH_RUN_LENGTHS = (1, 1, 2, 3, 5, 16, VECTOR_MIN_N - 1, VECTOR_MIN_N, VECTOR_MIN_N + 1, 300)


def batch_runs(rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """1 to 12 runs of (values, weights): log-uniform values over most of the
    double range, uniform runs, and ln a ties that only ln w breaks (equal
    values, and distinct values near 1e300 whose logs are one double)."""
    runs = []
    for _ in range(int(rng.integers(1, 13))):
        n = int(rng.choice(BATCH_RUN_LENGTHS))
        kind = int(rng.integers(4))
        if kind == 0:
            values = log_uniform(rng, 1e-300, 1e300, n)
        elif kind == 1:
            values = np.full(n, log_uniform(rng, 1e-5, 1e5, 1)[0])
        elif kind == 2:
            values = rng.choice(log_uniform(rng, 1e-3, 1e3, 3), n)
        else:
            values = 1e300 + rng.integers(0, 4, n) * math.ulp(1e300)
        weights = rng.choice([0.5, 1.0, 2.0, 3.0], n) if kind else rng.uniform(0.5, 2.0, n)
        runs.append((values, weights))
    return runs


def batch_of(runs: list[tuple[np.ndarray, np.ndarray]]) -> list[PositiveSample]:
    """The samples of ``runs`` of (values, weights), from one ``_sample_batch``."""
    return _sample_batch(
        np.concatenate([v for v, _ in runs]),
        np.concatenate([w for _, w in runs]),
        [v.size for v, _ in runs],
    )


def batch_mismatches(runs: list[tuple[np.ndarray, np.ndarray]]) -> list[int]:
    """Indices of the runs whose sample from one batch differs in any slot
    from ``PositiveSample`` on copies of the same two arrays."""
    return [
        index
        for index, ((values, weights), sample) in enumerate(zip(runs, batch_of(runs)))
        if sample_bits(sample) != sample_bits(PositiveSample(values.copy(), weights.copy()))
    ]


def batch_sample_outcomes() -> dict[str, object]:
    """Batches of :func:`batch_runs` on 40 seeds against one-at-a-time
    samples, under the backend this process imported: the mismatching runs,
    the number of samples and of those with loop lists, and a digest of every
    sample's arrays and floats, which no backend may move."""
    mismatches, samples, with_lists = [], 0, 0
    digest = hashlib.sha256()
    for seed in range(40):
        runs = batch_runs(np.random.default_rng(seed))
        mismatches += [(seed, index) for index in batch_mismatches(runs)]
        for values, weights in runs:
            sample = PositiveSample(values, weights)
            arrays, floats, _, uniform, lists = sample_bits(sample)
            digest.update(repr((arrays, floats, uniform)).encode())
            samples += 1
            with_lists += lists is not None
    return {
        "mismatches": mismatches,
        "samples": samples,
        "with_lists": with_lists,
        "digest": digest.hexdigest(),
    }


#: The smallest mass of each generated chain (the median, for lognormal),
#: from the least positive double to near the top of the range.
GENERATOR_M0 = (5e-324, 1e-320, 1e-310, 1e-300, 1e-150, 1.0, 28.0, 1e150, 1e300, 1e305)
#: Each generator, as a function of m0 and its one parameter, and the
#: values that parameter takes: Flory's x, Poisson's mean degree and the
#: lognormal sigma, on 101 points.
GENERATOR_PARAMETERS = {
    "flory": (generate_flory, (0.5, 0.9, 0.999)),
    "poisson": (mwd.generate_poisson, (1e-3, 5.0, 1e4, 1e6)),
    "lognormal": (lambda m0, sigma: mwd.generate_lognormal(m0, sigma, 101), (0.1, 1.0, 5.0)),
}


def generator_chains() -> list[list[object]]:
    """``[model, m0, parameter, chain]`` for every dataset the generators
    make from :data:`GENERATOR_M0` and :data:`GENERATOR_PARAMETERS`; the
    parameters a generator refuses are left out.  The chain holds Mn, Mv at
    s = 0.1, 0.5, 0.7 and 1, Mw and Mz as hex, each from its own public
    function, so no report's clamp touches them.  JSON-ready, so a
    subprocess under another backend can report it."""
    rows = []
    for model, (generate, parameters) in GENERATOR_PARAMETERS.items():
        for m0 in GENERATOR_M0:
            for parameter in parameters:
                try:
                    dataset = generate(m0, parameter)
                except ParameterDomainError:
                    continue
                chain = [
                    mwd.number_average(dataset),
                    *(mwd.viscosity_average(dataset, s) for s in (0.1, 0.5, 0.7, 1.0)),
                    mwd.weight_average(dataset),
                    mwd.z_average(dataset),
                ]
                rows.append([model, m0, parameter, [x.hex() for x in chain]])
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
