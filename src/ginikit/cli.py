"""Command-line interface.

Subcommands:

* ``mean``        -- one mean of a sample (Gini, power or Lehmer).
* ``mwd-report``  -- molecular-weight averages of a distribution file.
* ``verify``      -- run the inequality audit over file or random samples.
* ``generate``    -- synthesize standard model distributions.
* ``plot``        -- deterministic SVG/CSV plot of a distribution.

Exit codes: 0 success, 1 unusable data (bad file contents, oracle domain),
2 usage or parameter errors (bad flags, invalid exponents, impossible
check hypotheses), 3 a requested inequality check failed on non-degenerate
input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import mwd as mwdmod
from ._util import atomic_write_text, format_double, read_text
from .audit import AuditVerdict, scan_monotonicity
from .errors import (
    DataError,
    GinikitError,
    HypothesisError,
    IngestionError,
    OracleDomainError,
    ParameterDomainError,
)
from .means import gini_mean, lehmer_mean, power_mean
from .oracle import OracleConfig, equivalence_report
from .plotting import render_csv, render_svg
from .sample import ExponentPair, PositiveSample

__all__ = ["main", "build_parser", "DEFAULT_GRID_CHAINS"]

#: The default audit grid: every named exponent pair from the standard
#: averages, arranged into chains whose consecutive pairs satisfy the
#: componentwise-dominance hypothesis.
DEFAULT_GRID_CHAINS: tuple[tuple[tuple[float, float], ...], ...] = (
    ((1.0, -1.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (3.0, 2.0)),
    ((1.5, -1.5), (2.0, 0.0)),
)

_MARK_NAMES = ("Mn", "Mv", "Mw", "Mz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginikit",
        description="Numerically stable Gini/Lehmer/power means, inequality audits "
        "and polymer molecular-weight analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser(
        "mean",
        help="compute one mean of a sample",
        description="Compute a Gini mean G(p,q), power mean M_r or Lehmer mean "
        "of positive values given on the command line or in a file "
        "(one value per line, optionally 'value,weight').",
    )
    p_mean.add_argument("values", nargs="*", type=float, help="sample values")
    p_mean.add_argument("--input", metavar="PATH", help="read the sample from a file")
    p_mean.add_argument("--p", type=float, help="first Gini exponent (needs --q)")
    p_mean.add_argument("--q", type=float, help="second Gini exponent (needs --p)")
    p_mean.add_argument("--r", type=float, help="power-mean exponent")
    p_mean.add_argument("--lehmer", type=float, metavar="P", help="Lehmer order")
    p_mean.set_defaults(func=_cmd_mean)

    p_report = sub.add_parser(
        "mwd-report",
        help="molecular-weight averages of a distribution",
        description="Print Mn, Mw, Mz, Mv, pdi, z-ratio and Schulz u for a "
        "distribution file (CSV or JSON).",
    )
    p_report.add_argument("--input", metavar="PATH", required=True)
    p_report.add_argument(
        "--s", type=float, default=0.7, help="Mark-Houwink exponent for Mv (default 0.7)"
    )
    p_report.add_argument(
        "--b",
        type=float,
        default=None,
        help="calibration exponent: also report hydrodynamic G(1,1-b) and "
        "sedimentation G(2-b,1-b) means",
    )
    p_report.add_argument(
        "--custom",
        action="append",
        default=[],
        metavar="P:Q",
        help="extra exponent pair to evaluate (repeatable)",
    )
    p_report.add_argument("--format", choices=("json", "text"), default="text")
    p_report.set_defaults(func=_cmd_mwd_report)

    p_verify = sub.add_parser(
        "verify",
        help="audit the mean inequalities on data",
        description="Check the monotonicity chain of Gini means over a parameter "
        "grid, on a distribution file or on seeded random samples, optionally "
        "cross-checking values against the extended-precision reference.",
    )
    p_verify.add_argument("--input", metavar="PATH", help="distribution file to audit")
    p_verify.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("SEED", "N"),
        help="audit N seeded random samples instead of a file",
    )
    p_verify.add_argument(
        "--grid",
        default="default",
        help="comma-separated chain of exponent pairs 'p:q,p:q,...' or 'default'",
    )
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also compare every mean against the extended-precision reference",
    )
    p_verify.add_argument("--report", metavar="PATH", help="write a JSON report")
    p_verify.set_defaults(func=_cmd_verify)

    p_generate = sub.add_parser(
        "generate",
        help="synthesize a model distribution",
        description="Generate a standard model molecular-weight distribution "
        "and write it to CSV or JSON.",
    )
    gen_sub = p_generate.add_subparsers(dest="model", required=True)

    g_flory = gen_sub.add_parser("flory", help="most-probable distribution")
    g_flory.add_argument("--m0", type=float, required=True, help="monomer mass")
    g_flory.add_argument("--x", type=float, required=True, help="conversion in (0,1)")
    g_flory.add_argument(
        "--tail", type=float, default=1e-12, help="truncation tail tolerance"
    )
    g_flory.add_argument("--out", metavar="PATH", required=True)
    g_flory.set_defaults(func=_cmd_generate_flory)

    g_poisson = gen_sub.add_parser("poisson", help="living-polymerization distribution")
    g_poisson.add_argument("--m0", type=float, required=True, help="monomer mass")
    g_poisson.add_argument(
        "--mean-degree", type=float, required=True, help="mean added degree"
    )
    g_poisson.add_argument("--out", metavar="PATH", required=True)
    g_poisson.set_defaults(func=_cmd_generate_poisson)

    g_lognormal = gen_sub.add_parser("lognormal", help="discretized lognormal")
    g_lognormal.add_argument("--median", type=float, required=True)
    g_lognormal.add_argument("--sigma", type=float, required=True)
    g_lognormal.add_argument("--n", type=int, required=True, help="grid points (>= 2)")
    g_lognormal.add_argument("--out", metavar="PATH", required=True)
    g_lognormal.set_defaults(func=_cmd_generate_lognormal)

    p_plot = sub.add_parser(
        "plot",
        help="plot a distribution deterministically",
        description="Render a distribution histogram with labeled mean markers. "
        "The output format follows the --out suffix (.svg or .csv) and is "
        "byte-deterministic.",
    )
    p_plot.add_argument("--input", metavar="PATH", required=True)
    p_plot.add_argument("--out", metavar="PATH", required=True)
    p_plot.add_argument(
        "--marks",
        default="Mn,Mv,Mw,Mz",
        help="comma-separated subset of Mn,Mv,Mw,Mz (empty for none)",
    )
    p_plot.add_argument(
        "--s", type=float, default=0.7, help="Mark-Houwink exponent for the Mv mark"
    )
    p_plot.set_defaults(func=_cmd_plot)

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _read_sample_file(path: str) -> PositiveSample:
    """Sample from a plain values file or a distribution file.

    A file whose first non-blank line is the distribution CSV header (or a
    .json file) is loaded as a distribution and contributes masses weighted
    by abundance.  Otherwise each non-blank line must be 'value' or
    'value,weight'.
    """
    p = Path(path)
    text = read_text(p)
    stripped = [line.strip() for line in text.splitlines()]
    first = next((line for line in stripped if line), "")
    if p.suffix.lower() == ".json" or first == mwdmod.CSV_HEADER:
        dataset = mwdmod.load_mwd(p)
        return PositiveSample(dataset.masses, dataset.abundances)
    values: list[float] = []
    weights: list[float] = []
    for lineno, line in enumerate(stripped, start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) not in (1, 2):
            raise IngestionError(
                f"expected 'value' or 'value,weight', got {line!r}", line=lineno
            )
        try:
            values.append(float(fields[0]))
            weights.append(float(fields[1]) if len(fields) == 2 else 1.0)
        except ValueError:
            raise IngestionError(f"could not parse numbers from {line!r}", line=lineno)
    if not values:
        raise IngestionError("no values found", line=len(stripped) or 1)
    return PositiveSample(values, weights)


def _cmd_mean(args: argparse.Namespace) -> int:
    selectors = [
        args.p is not None or args.q is not None,
        args.r is not None,
        args.lehmer is not None,
    ]
    if sum(selectors) != 1:
        raise ParameterDomainError(
            "choose exactly one of --p/--q, --r or --lehmer"
        )
    if selectors[0] and (args.p is None or args.q is None):
        raise ParameterDomainError("--p and --q must be given together")
    if args.values and args.input is not None:
        raise ParameterDomainError("pass positional values or --input, not both")
    if not args.values and args.input is None:
        raise ParameterDomainError("no sample: pass positional values or --input")

    sample = (
        _read_sample_file(args.input)
        if args.input is not None
        else PositiveSample(args.values)
    )
    if selectors[0]:
        value = gini_mean(sample, ExponentPair(args.p, args.q))
    elif args.r is not None:
        value = power_mean(sample, args.r)
    else:
        value = lehmer_mean(sample, args.lehmer)
    print(format_double(value))
    return 0


def _parse_custom_pair(spec: str) -> tuple[float, float]:
    fields = spec.split(":")
    if len(fields) != 2:
        raise ParameterDomainError(f"custom pair must look like 'P:Q', got {spec!r}")
    try:
        return float(fields[0]), float(fields[1])
    except ValueError:
        raise ParameterDomainError(f"custom pair must be numeric 'P:Q', got {spec!r}")


def _cmd_mwd_report(args: argparse.Namespace) -> int:
    dataset = mwdmod.load_mwd(args.input)
    custom: list[tuple[float, float]] = []
    if args.b is not None:
        b = args.b
        if not (isinstance(b, float) and math.isfinite(b) and 0.0 < b < 1.0):
            raise ParameterDomainError(
                f"calibration exponent b must be in (0, 1), got {b!r}"
            )
        custom.append((1.0, 1.0 - b))
        custom.append((2.0 - b, 1.0 - b))
    custom.extend(_parse_custom_pair(spec) for spec in args.custom)
    report = mwdmod.polydispersity(dataset, s=args.s, custom=custom)
    if args.format == "json":
        sys.stdout.write(mwdmod.report_to_json(report))
    else:
        sys.stdout.write(mwdmod.report_to_text(report))
    return 0


def _parse_grid(spec: str) -> tuple[tuple[tuple[float, float], ...], ...]:
    if spec == "default":
        return DEFAULT_GRID_CHAINS
    pairs: list[tuple[float, float]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ParameterDomainError("empty entry in --grid")
        pairs.append(_parse_custom_pair(token))
    if len(pairs) < 2:
        raise ParameterDomainError("--grid needs at least two pairs to form a chain")
    return (tuple(pairs),)


def _random_samples(seed: int, count: int) -> list[PositiveSample]:
    """Seeded audit samples: n in [2,16], values log-uniform in [1e-3, 1e3].

    The ranges sit inside the certified oracle domain so --oracle works on
    the same samples.
    """
    if count < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        n = int(rng.integers(2, 17))
        values = 10.0 ** rng.uniform(-3.0, 3.0, n)
        weights = rng.uniform(0.5, 2.0, n)
        samples.append(PositiveSample(values, weights))
    return samples


def _verdict_status(verdict: AuditVerdict) -> str:
    if verdict.degenerate:
        return "DEGENERATE"
    if not verdict.holds:
        return "FAIL"
    return "WEAK" if verdict.weak else "HOLDS"


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.random is None):
        raise ParameterDomainError("choose exactly one of --input or --random SEED N")
    chains = _parse_grid(args.grid)

    if args.input is not None:
        dataset = mwdmod.load_mwd(args.input)
        samples = [PositiveSample(dataset.masses, dataset.abundances)]
        source = str(args.input)
    else:
        seed, count = args.random
        samples = _random_samples(seed, count)
        source = f"random(seed={seed}, n={count})"

    chain_pairs = [
        [ExponentPair(p, q) for (p, q) in chain] for chain in chains
    ]
    checks: list[dict[str, object]] = []
    counts = {"holds": 0, "weak": 0, "degenerate": 0, "failed": 0}
    for index, sample in enumerate(samples):
        for chain in chain_pairs:
            verdicts = scan_monotonicity(sample, chain)
            for link, verdict in enumerate(verdicts):
                lower, upper = chain[link], chain[link + 1]
                status = _verdict_status(verdict)
                if verdict.degenerate:
                    counts["degenerate"] += 1
                elif not verdict.holds:
                    counts["failed"] += 1
                else:
                    counts["holds"] += 1
                    if verdict.weak:
                        counts["weak"] += 1
                print(
                    f"sample {index:04d}  "
                    f"G({format_double(lower.p)},{format_double(lower.q)})"
                    f" -> G({format_double(upper.p)},{format_double(upper.q)})"
                    f"  {status:<10s} margin={verdict.margin:.6e}"
                )
                checks.append(
                    {
                        "sample": index,
                        "lower": [lower.p, lower.q],
                        "upper": [upper.p, upper.q],
                        "holds": verdict.holds,
                        "degenerate": verdict.degenerate,
                        "weak": verdict.weak,
                        "margin": verdict.margin,
                        "tolerance": verdict.tolerance,
                    }
                )

    oracle_payload: dict[str, object] | None = None
    if args.oracle:
        unique_pairs: list[ExponentPair] = []
        for chain in chain_pairs:
            for pair in chain:
                if pair not in unique_pairs:
                    unique_pairs.append(pair)
        summary = equivalence_report(
            samples, [unique_pairs] * len(samples), OracleConfig(), rel_tol=1e-12
        )
        oracle_payload = {
            "cases": summary.cases,
            "max_rel_error": summary.max_rel_error,
            "rel_tol": summary.rel_tol,
            "passed": summary.passed,
        }
        print(
            f"oracle: cases={summary.cases} max_rel_error={summary.max_rel_error:.3e} "
            f"tol={summary.rel_tol:.1e} -> {'ok' if summary.passed else 'FAIL'}"
        )

    total = sum(v for k, v in counts.items() if k != "weak")
    print(
        f"checks={total} holds={counts['holds']} weak={counts['weak']} "
        f"degenerate={counts['degenerate']} failed={counts['failed']}"
    )
    failed = counts["failed"] > 0 or (
        oracle_payload is not None and not oracle_payload["passed"]
    )

    if args.report is not None:
        payload = {
            "source": source,
            "grid": [[list(pair) for pair in chain] for chain in chains],
            "summary": {"checks": total, **counts},
            "checks": checks,
            "oracle": oracle_payload,
            "all_passed": not failed,
        }
        atomic_write_text(args.report, json.dumps(payload, indent=2) + "\n")

    return 3 if failed else 0


def _cmd_generate_flory(args: argparse.Namespace) -> int:
    dataset = mwdmod.generate_flory(args.m0, args.x, args.tail)
    mwdmod.save_mwd(dataset, args.out)
    return 0


def _cmd_generate_poisson(args: argparse.Namespace) -> int:
    dataset = mwdmod.generate_poisson(args.m0, args.mean_degree)
    mwdmod.save_mwd(dataset, args.out)
    return 0


def _cmd_generate_lognormal(args: argparse.Namespace) -> int:
    dataset = mwdmod.generate_lognormal(args.median, args.sigma, args.n)
    mwdmod.save_mwd(dataset, args.out)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    suffix = Path(args.out).suffix.lower()
    if suffix not in (".svg", ".csv"):
        raise ParameterDomainError(
            f"--out must end in .svg or .csv, got {args.out!r}"
        )
    names = [token.strip() for token in args.marks.split(",") if token.strip()]
    for name in names:
        if name not in _MARK_NAMES:
            raise ParameterDomainError(
                f"unknown mark {name!r}; choose from {', '.join(_MARK_NAMES)}"
            )
    dataset = mwdmod.load_mwd(args.input)
    marks: dict[str, float] = {}
    for name in names:
        if name == "Mn":
            marks[name] = mwdmod.number_average(dataset)
        elif name == "Mv":
            marks[name] = mwdmod.viscosity_average(dataset, args.s)
        elif name == "Mw":
            marks[name] = mwdmod.weight_average(dataset)
        else:
            marks[name] = mwdmod.z_average(dataset)
    text = (
        render_svg(dataset, marks) if suffix == ".svg" else render_csv(dataset, marks)
    )
    atomic_write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParameterDomainError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GinikitError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
