"""Byte-identity harness: one sha256 per output family, to compare two trees.

Run from the repository root, once per tree and backend, and compare the
lines:

    PYTHONPATH=src python benchmarks/identity.py

It prints the kernel backend, then one sha256 for each of

- ``transcript``: exit code, stdout, stderr and the sha256 of every file
  written, for ``verify --random {1,2,3} 200`` with ``--oracle --report``
  and without, then, on a generated 27,618-species Flory file (m0 = 28,
  x = 0.999): ``mwd-report --b 0.5 --custom 1.0000001:1``,
  ``mwd-report --b 0.5 --custom 1.5:-1.5 --format json``,
  ``mwd-report --b 0.3 --s 1``, ``verify --input``, and ``plot`` to SVG
  (``--marks Mz,Mv,Mn --s 1.7``) and to CSV.  The commands run in a
  temporary directory on relative paths, so no path enters the bytes.
- ``log_power_sum``: ``log_power_sum`` of 3,000 seeded samples (n in 1-16
  or 100-399, values 1e-25...1e25, 70% weighted, half with tied values) at
  11 exponents from -100 to 30, each result packed as 5 little-endian
  doubles.
- ``routes``: ``identical_parameter_gini`` at 16 exponents (zeros of both
  signs, subnormals, 1e10, -1e300 and one past the domain) and the margin,
  tolerance and flags of ``check_power_mean_bound`` on 6 bracketings, over
  800 seeded samples (uniform, weighted and unweighted), each exception
  raised recorded by type and message.
- ``oracle``: ``oracle_gini`` at 7 pairs (integer, odd-half and general
  exponents, p == q and a 1e-22 gap) and the worst case of
  ``equivalence_report`` on those pairs, with (31, 0) added for every
  tenth sample, at 50 and 64 digits, over 300 seeded samples (n in 1-16 or
  100-300, values 1e-30...1e30, 70% weighted): 4,200 reference doubles
  and 600 summaries, each error raised recorded by type and message.

Set ``GINIKIT_PURE=1`` to force the pure backend where the compiled one is
built.  The run takes about half a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import tempfile

import numpy as np

from ginikit import backend_name, cli
from ginikit.audit import check_power_mean_bound
from ginikit.errors import GinikitError
from ginikit.means import identical_parameter_gini, log_power_sum
from ginikit.oracle import equivalence_report, oracle_gini
from ginikit.sample import ExponentPair, PositiveSample

FLORY = "flory.csv"

#: The CLI calls of the transcript, in order; ``generate`` writes the file
#: the later calls read.
COMMANDS: tuple[tuple[str, ...], ...] = (
    *(
        ("verify", "--random", seed, "200", "--oracle", "--report", f"report{seed}.json")
        for seed in ("1", "2", "3")
    ),
    *(("verify", "--random", seed, "200") for seed in ("1", "2", "3")),
    ("generate", "flory", "--m0", "28", "--x", "0.999", "--out", FLORY),
    ("mwd-report", "--input", FLORY, "--b", "0.5", "--custom", "1.0000001:1"),
    ("mwd-report", "--input", FLORY, "--b", "0.5", "--custom", "1.5:-1.5", "--format", "json"),
    ("mwd-report", "--input", FLORY, "--b", "0.3", "--s", "1"),
    ("verify", "--input", FLORY),
    ("plot", "--input", FLORY, "--out", "flory.svg", "--marks", "Mz,Mv,Mn", "--s", "1.7"),
    ("plot", "--input", FLORY, "--out", "flory_plot.csv"),
)

#: Exponents of the ``log_power_sum`` corpus: -100, -87, ..., 30.
CORPUS_EXPONENTS = tuple(float(p) for p in np.linspace(-100.0, 30.0, 11))

#: Exponents of ``identical_parameter_gini`` in the route corpus; 1e307
#: overflows |p| * max|ln a| on most samples.
EQUAL_EXPONENTS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-9, 0.5,
    1.0, -1.0, 2.0, -3.5, 30.0, 1e10, -1e300, 1e307,
)

#: (p, q, r) of ``check_power_mean_bound``: three low-side bracketings (one
#: inside the tangent gap), three high-side ones (one past the domain).
BRACKETINGS = (
    (1.0, -1.0, 1.0),
    (1.0, -1.0, 2.0),
    (1e-9, -1e-9, 1e-9),
    (3.0, 1.0, 2.0),
    (2.0, 5e-324, 1.0),
    (1e307, 1.0, 2.0),
)

#: Pairs of the oracle corpus: integer, odd-half and general exponents,
#: p == q and a gap below the oracle's tiny-gap threshold.
ORACLE_PAIRS = tuple(
    ExponentPair(p, q)
    for p, q in (
        (2.0, 1.0), (30.0, -29.0), (1.5, -1.5), (-0.5, 2.5), (0.3, -1.7), (0.7, 0.7),
        (1e-22, 0.0),
    )
)
#: Digits of the oracle corpus: the default and one that is no multiple of 10.
ORACLE_DIGITS = (50, 64)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def transcript() -> bytes:
    """The bytes of every command's exit code, output and written files."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
                lines.append(f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}{err.getvalue()}")
                for flag in ("--out", "--report"):
                    if flag in argv:
                        written = argv[argv.index(flag) + 1]
                        with open(written, "rb") as handle:
                            lines.append(f"{written} {_sha256(handle.read())}\n")
        finally:
            os.chdir(cwd)
    return "".join(lines).encode("utf-8")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), n)


def log_power_sum_corpus() -> bytes:
    rng = np.random.default_rng(7)
    chunks = []
    for _ in range(3000):
        n = int(rng.integers(1, 17)) if rng.random() < 0.5 else int(rng.integers(100, 400))
        values = _log_uniform(rng, 1e-25, 1e25, n)
        if rng.random() < 0.5:
            values = rng.choice(values[: max(1, n // 2)], n)
        weights = _log_uniform(rng, 1e-2, 1e2, n) if rng.random() < 0.7 else None
        sample = PositiveSample(values, weights)
        for p in CORPUS_EXPONENTS:
            chunks.append(struct.pack("<5d", *log_power_sum(sample, p)))
    return b"".join(chunks)


def _outcome(call) -> bytes:
    """The result's bytes, or the exception's type and message."""
    try:
        result = call()
    except GinikitError as exc:
        return f"E {type(exc).__name__}: {exc}\n".encode("utf-8")
    if isinstance(result, float):
        return struct.pack("<d", result)
    return struct.pack(
        "<2d3?", result.margin, result.tolerance, result.holds, result.degenerate, result.weak
    )


def route_corpus() -> bytes:
    rng = np.random.default_rng(11)
    chunks = []
    for index in range(800):
        n = int(rng.integers(1, 17)) if index % 4 else int(rng.integers(100, 400))
        kind = index % 3
        if kind == 0:  # uniform, weighted or not
            values = np.full(n, _log_uniform(rng, 1e-25, 1e25, 1)[0])
        else:
            values = _log_uniform(rng, 1e-25, 1e25, n)
        weights = _log_uniform(rng, 1e-2, 1e2, n) if kind == 1 or index % 2 else None
        sample = PositiveSample(values, weights)
        for p in EQUAL_EXPONENTS:
            chunks.append(_outcome(lambda: identical_parameter_gini(sample, p)))
        for p, q, r in BRACKETINGS:
            chunks.append(_outcome(lambda: check_power_mean_bound(sample, p, q, r)))
    return b"".join(chunks)


def _summary(call) -> bytes:
    """The worst case of an equivalence report, or the exception raised."""
    try:
        summary = call()
    except GinikitError as exc:
        return f"E {type(exc).__name__}: {exc}\n".encode("utf-8")
    pair = summary.worst_params
    worst = "-" if pair is None else f"{summary.worst_index} {pair.p.hex()} {pair.q.hex()}"
    return (
        f"{summary.cases} {summary.max_rel_error.hex()} {worst} {summary.passed}\n"
    ).encode("utf-8")


def oracle_corpus() -> bytes:
    rng = np.random.default_rng(13)
    chunks = []
    for index in range(300):
        n = int(rng.integers(1, 17)) if index % 4 else int(rng.integers(100, 301))
        values = _log_uniform(rng, 1e-30, 1e30, n)
        weights = _log_uniform(rng, 1e-2, 1e2, n) if rng.random() < 0.7 else None
        sample = PositiveSample(values, weights)
        grid = list(ORACLE_PAIRS)
        if index % 10 == 0:
            grid.append(ExponentPair(31.0, 0.0))
        for digits in ORACLE_DIGITS:
            for pair in ORACLE_PAIRS:
                chunks.append(
                    _outcome(lambda: oracle_gini(sample, pair, precision_digits=digits))
                )
            chunks.append(
                _summary(lambda: equivalence_report([sample], grid, precision_digits=digits))
            )
    return b"".join(chunks)


def main() -> None:
    print(f"backend {backend_name()}")
    for name, build in (
        ("transcript", transcript),
        ("log_power_sum", log_power_sum_corpus),
        ("routes", route_corpus),
        ("oracle", oracle_corpus),
    ):
        print(f"{name} {_sha256(build())}")


if __name__ == "__main__":
    main()
