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
from typing import Callable, Sequence

import numpy as np

from . import mwd as mwdmod
from ._util import _lines, atomic_write_text, format_double, read_text
from .audit import ParameterOrder, scan_monotonicity
from .errors import GinikitError, HypothesisError, IngestionError, ParameterDomainError
from .means import _PowerSums, gini_mean, lehmer_mean, power_mean
from .plotting import render_csv, render_svg
from .sample import ExponentPair, PositiveSample

__all__ = ["main", "build_parser", "DEFAULT_GRID_CHAINS"]

#: The default audit grid: the Mn, Mw, Mz and effective-parameter pairs of
#: ``mwd._AVERAGES`` and G(1,-1) and G(2,0), which name no average, in chains
#: whose consecutive pairs satisfy the componentwise-dominance hypothesis.
DEFAULT_GRID_CHAINS: tuple[tuple[tuple[float, float], ...], ...] = (
    ((1.0, -1.0), mwdmod._pair("Mn"), (2.0, 0.0), mwdmod._pair("Mw"), mwdmod._pair("Mz")),
    (mwdmod._pair("effective"), (2.0, 0.0)),
)

#: Most samples ``verify --random SEED N`` builds.  Every sample is held
#: until the command ends: about 1 KB each, 1.5 KB under ``--oracle``, which
#: also holds each sample's memo of log sums from the oracle until its audit,
#: and 5.5 KB with its ``--report`` rows (``tracemalloc`` peak, per sample
#: added from 2,000 to 4,000), and 0.25 ms with the pure kernel.  So a larger
#: N is refused before any sample is built.
MAX_RANDOM_SAMPLES = 100_000

#: One check of a ``verify --report`` file, laid out as
#: ``json.dumps(..., indent=2)`` lays it out inside the ``checks`` list.
#: Every float in a row is finite (the margin and tolerance of two finite
#: slopes, the exponents of two ``ExponentPair``), and ``%r`` of a finite
#: float is the shortest round-trip form that ``json`` writes too.
_CHECK_ROW = (
    '    {\n      "sample": %d,\n'
    '      "lower": [\n        %r,\n        %r\n      ],\n'
    '      "upper": [\n        %r,\n        %r\n      ],\n'
    '      "holds": %s,\n      "degenerate": %s,\n      "weak": %s,\n'
    '      "margin": %r,\n      "tolerance": %r\n    }'
)

#: Exit code of each error kind, first match wins (see the module docstring
#: and :mod:`ginikit.errors`).  Data errors, including ingestion and oracle
#: domain errors, and I/O errors exit 1.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (ParameterDomainError, 2),
    (HypothesisError, 2),
    (GinikitError, 1),
    (OSError, 1),
)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, whose arguments can wait until it parses.

    Built with ``arguments``, it calls ``arguments(self)`` once, when it is
    first asked to parse (which is also when it prints its help or an
    error).  Its name, help and description are registered at once, so the
    top-level usage, help and choice errors do not depend on it.
    """

    def __init__(
        self,
        *args: object,
        arguments: Callable[[argparse.ArgumentParser], None] | None = None,
        **kwargs: object,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(
        self,
        args: Sequence[str] | None = None,
        namespace: argparse.Namespace | None = None,
    ) -> tuple[argparse.Namespace, list[str]]:
        arguments, self._arguments = self._arguments, None
        if arguments is not None:
            arguments(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, each with all its arguments."""
    return _parser(lazy=False)


def _parser(lazy: bool) -> argparse.ArgumentParser:
    """The command-line parser.  With ``lazy``, a subcommand gets its
    arguments only when it parses (see :class:`_Subcommand`), so ``main``
    builds the arguments of the one subcommand that runs."""
    parser = argparse.ArgumentParser(
        prog="ginikit",
        description="Numerically stable Gini/Lehmer/power means, inequality audits "
        "and polymer molecular-weight analysis.",
    )

    def add(
        sub: argparse._SubParsersAction,
        name: str,
        arguments: Callable[[argparse.ArgumentParser], None],
        **kwargs: str,
    ) -> None:
        if lazy:
            sub.add_parser(name, arguments=arguments, **kwargs)
        else:
            arguments(sub.add_parser(name, **kwargs))

    def generate_arguments(p_generate: argparse.ArgumentParser) -> None:
        gen_sub = p_generate.add_subparsers(dest="model", required=True)
        add(gen_sub, "flory", _flory_arguments, help="most-probable distribution")
        add(
            gen_sub,
            "poisson",
            _poisson_arguments,
            help="living-polymerization distribution",
        )
        add(gen_sub, "lognormal", _lognormal_arguments, help="discretized lognormal")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    add(
        sub,
        "mean",
        _mean_arguments,
        help="compute one mean of a sample",
        description="Compute a Gini mean G(p,q), power mean M_r or Lehmer mean "
        "of positive values given on the command line or in a file "
        "(one value per line, optionally 'value,weight').",
    )
    add(
        sub,
        "mwd-report",
        _mwd_report_arguments,
        help="molecular-weight averages of a distribution",
        description="Print Mn, Mw, Mz, Mv, pdi, z-ratio and Schulz u for a "
        "distribution file (CSV or JSON).",
    )
    add(
        sub,
        "verify",
        _verify_arguments,
        help="audit the mean inequalities on data",
        description="Check the monotonicity chain of Gini means over a parameter "
        "grid, on a distribution file or on seeded random samples, optionally "
        "cross-checking values against the extended-precision reference.",
    )
    add(
        sub,
        "generate",
        generate_arguments,
        help="synthesize a model distribution",
        description="Generate a standard model molecular-weight distribution "
        "and write it to CSV or JSON.",
    )
    add(
        sub,
        "plot",
        _plot_arguments,
        help="plot a distribution deterministically",
        description="Render a distribution histogram with labeled mean markers. "
        "The output format follows the --out suffix (.svg or .csv) and is "
        "byte-deterministic.",
    )
    return parser


def _mean_arguments(p_mean: argparse.ArgumentParser) -> None:
    p_mean.add_argument("values", nargs="*", type=float, help="sample values")
    p_mean.add_argument("--input", metavar="PATH", help="read the sample from a file")
    p_mean.add_argument("--p", type=float, help="first Gini exponent (needs --q)")
    p_mean.add_argument("--q", type=float, help="second Gini exponent (needs --p)")
    p_mean.add_argument("--r", type=float, help="power-mean exponent")
    p_mean.add_argument("--lehmer", type=float, metavar="P", help="Lehmer order")
    p_mean.set_defaults(func=_cmd_mean)


def _mwd_report_arguments(p_report: argparse.ArgumentParser) -> None:
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


def _verify_arguments(p_verify: argparse.ArgumentParser) -> None:
    p_verify.add_argument("--input", metavar="PATH", help="distribution file to audit")
    p_verify.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("SEED", "N"),
        help="audit N seeded random samples instead of a file "
        f"(N at most {MAX_RANDOM_SAMPLES})",
    )
    p_verify.add_argument(
        "--grid",
        default="default",
        help="chain of pairs 'p:q,p:q,...' (each taken as p >= q, p:p allowed), each "
        "dominating the one before componentwise, larger in at least one; or 'default'",
    )
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also compare every mean against the extended-precision reference",
    )
    p_verify.add_argument("--report", metavar="PATH", help="write a JSON report")
    p_verify.set_defaults(func=_cmd_verify)


def _flory_arguments(g_flory: argparse.ArgumentParser) -> None:
    g_flory.add_argument("--m0", type=float, required=True, help="monomer mass")
    g_flory.add_argument("--x", type=float, required=True, help="conversion in (0,1)")
    g_flory.add_argument(
        "--tail", type=float, default=1e-12, help="truncation tail tolerance"
    )
    g_flory.add_argument("--out", metavar="PATH", required=True)
    g_flory.set_defaults(func=_cmd_generate_flory)


def _poisson_arguments(g_poisson: argparse.ArgumentParser) -> None:
    g_poisson.add_argument("--m0", type=float, required=True, help="monomer mass")
    g_poisson.add_argument(
        "--mean-degree", type=float, required=True, help="mean added degree"
    )
    g_poisson.add_argument("--out", metavar="PATH", required=True)
    g_poisson.set_defaults(func=_cmd_generate_poisson)


def _lognormal_arguments(g_lognormal: argparse.ArgumentParser) -> None:
    g_lognormal.add_argument("--median", type=float, required=True)
    g_lognormal.add_argument("--sigma", type=float, required=True)
    g_lognormal.add_argument("--n", type=int, required=True, help="grid points (>= 2)")
    g_lognormal.add_argument("--out", metavar="PATH", required=True)
    g_lognormal.set_defaults(func=_cmd_generate_lognormal)


def _plot_arguments(p_plot: argparse.ArgumentParser) -> None:
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
    if mwdmod._is_json(p):
        return mwdmod.load_mwd(p).to_sample()
    text = read_text(p)
    stripped = (line.strip() for line in _lines(text))
    if next((line for line in stripped if line), "") != mwdmod.CSV_HEADER:
        return _parse_values(text)
    return mwdmod._parse_csv(text, p.stem).to_sample()


def _parse_values(text: str) -> PositiveSample:
    """Sample from the text of a values file: 'value' or 'value,weight' lines."""
    lines = _lines(text)
    values: list[float] = []
    weights: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) not in (1, 2):
            raise IngestionError(
                f"expected 'value' or 'value,weight', got {line!r}", line=lineno
            )
        try:
            value = float(fields[0])
            weight = float(fields[1]) if len(fields) == 2 else 1.0
        except ValueError:
            raise IngestionError(f"could not parse numbers from {line!r}", line=lineno)
        if not (math.isfinite(value) and value > 0.0):
            raise IngestionError(
                f"value must be finite and > 0, got {fields[0].strip()}", line=lineno
            )
        if not (math.isfinite(weight) and weight > 0.0):
            raise IngestionError(
                f"weight must be finite and > 0, got {fields[1].strip()}", line=lineno
            )
        values.append(value)
        weights.append(weight)
    if not values:
        raise IngestionError("no values found", line=len(lines) or 1)
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
    calibration = ("hydrodynamic", "sedimentation") if args.b is not None else ()
    custom = [mwdmod._pair(name, args.b) for name in calibration]
    custom.extend(_parse_custom_pair(spec) for spec in args.custom)
    report = mwdmod.polydispersity(dataset, s=args.s, custom=custom)
    if args.format == "json":
        sys.stdout.write(mwdmod.report_to_json(report))
    else:
        sys.stdout.write(mwdmod.report_to_text(report))
    return 0


def _parse_grid(spec: str) -> list[list[ExponentPair]]:
    """The --grid chains as canonical :class:`ExponentPair` chains, each link
    checked as a :class:`ParameterOrder`, so a broken chain ends the command
    before any sample or oracle call."""
    chains = DEFAULT_GRID_CHAINS
    if spec != "default":
        pairs: list[tuple[float, float]] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                raise ParameterDomainError("empty entry in --grid")
            pairs.append(_parse_custom_pair(token))
        if len(pairs) < 2:
            raise ParameterDomainError("--grid needs at least two pairs to form a chain")
        chains = (tuple(pairs),)
    checked = []
    for chain in chains:
        # each pair is checked before the link that ends at it
        pairs = [ExponentPair(*chain[0])]
        for p, q in chain[1:]:
            pairs.append(ExponentPair(p, q))
            ParameterOrder(pairs[-2], pairs[-1])
        checked.append(pairs)
    return checked


def _random_samples(seed: int, count: int) -> list[PositiveSample]:
    """Seeded audit samples: n in [2,16], values log-uniform in [1e-3, 1e3].

    The ranges sit inside the certified oracle domain so --oracle works on
    the same samples.
    """
    if seed < 0:
        raise ParameterDomainError(f"seed must be >= 0, got {seed}")
    if count < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {count}")
    if count > MAX_RANDOM_SAMPLES:
        raise ParameterDomainError(
            f"sample count must be <= {MAX_RANDOM_SAMPLES}, got {count}"
        )
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        n = int(rng.integers(2, 17))
        values = 10.0 ** rng.uniform(-3.0, 3.0, n)
        weights = rng.uniform(0.5, 2.0, n)
        samples.append(PositiveSample(values, weights))
    return samples


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.random is None):
        raise ParameterDomainError("choose exactly one of --input or --random SEED N")
    chains = _parse_grid(args.grid)

    if args.input is not None:
        samples = [mwdmod.load_mwd(args.input).to_sample()]
        source = str(args.input)
    else:
        seed, count = args.random
        samples = _random_samples(seed, count)
        source = f"random(seed={seed}, n={count})"

    oracle_payload: dict[str, object] | None = None
    # under --oracle, each sample's memo of log sums is filled by the oracle's
    # fast side and read again by that sample's audit
    memos: list[_PowerSums] | None = None
    if args.oracle:
        # imported here, so no other command loads mpmath
        from .oracle import REL_TOL, equivalence_report

        # the oracle runs before the audit, so a sample or pair outside its
        # domain ends the command before any audit line is printed
        unique_pairs = list(dict.fromkeys(pair for chain in chains for pair in chain))
        memos = [_PowerSums(sample) for sample in samples]
        summary = equivalence_report(samples, unique_pairs, _memos=memos)
        worst = None
        if summary.worst_params is not None:
            worst = {
                "sample": summary.worst_index,
                "p": summary.worst_params.p,
                "q": summary.worst_params.q,
                "rel_error": summary.max_rel_error,
            }
        oracle_payload = {
            "cases": summary.cases,
            "max_rel_error": summary.max_rel_error,
            "rel_tol": REL_TOL,
            "passed": summary.passed,
            "worst": worst,
        }
    # each link's "G(p,q) -> G(p,q)" label, formatted once per chain
    labels = [
        [
            f"G({format_double(lower.p)},{format_double(lower.q)})"
            f" -> G({format_double(upper.p)},{format_double(upper.q)})"
            for lower, upper in zip(chain, chain[1:])
        ]
        for chain in chains
    ]
    checks: list[str] = []
    tally = {"HOLDS": 0, "WEAK": 0, "DEGENERATE": 0, "FAIL": 0}
    write = sys.stdout.write
    for index, sample in enumerate(samples):
        head = f"sample {index:04d}  "
        # without --oracle the audit forms each slope's log sums afresh, the
        # kernel calls the benchmark's tracer self-test pins (ROADMAP item 2)
        memo = {} if memos is None else {"_sums": memos[index]}
        for chain, chain_labels in zip(chains, labels):
            verdicts = scan_monotonicity(sample, chain, **memo)
            lines = []
            for link, verdict in enumerate(verdicts):
                if verdict.degenerate:
                    status = "DEGENERATE"
                elif not verdict.holds:
                    status = "FAIL"
                else:
                    status = "WEAK" if verdict.weak else "HOLDS"
                tally[status] += 1
                lines.append(
                    f"{head}{chain_labels[link]}  {status:<10s} margin={verdict.margin:.6e}\n"
                )
                if args.report is None:
                    continue
                lower, upper = chain[link], chain[link + 1]
                checks.append(
                    _CHECK_ROW % (
                        index, lower.p, lower.q, upper.p, upper.q,
                        _json_bool(verdict.holds), _json_bool(verdict.degenerate),
                        _json_bool(verdict.weak), verdict.margin, verdict.tolerance,
                    )
                )
            # one write per scan, before the next scan, which may raise
            write("".join(lines))
    counts = {
        "holds": tally["HOLDS"] + tally["WEAK"],
        "weak": tally["WEAK"],
        "degenerate": tally["DEGENERATE"],
        "failed": tally["FAIL"],
    }

    if args.oracle:
        print(
            f"oracle: cases={summary.cases} max_rel_error={summary.max_rel_error:.3e} "
            f"tol={REL_TOL:.1e} -> {'ok' if summary.passed else 'FAIL'}"
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
        head = {
            "source": source,
            "grid": [[[pair.p, pair.q] for pair in chain] for chain in chains],
            "summary": {"checks": total, **counts},
        }
        tail = {"oracle": oracle_payload, "all_passed": not failed}
        atomic_write_text(args.report, _report_text(head, checks, tail))

    return 3 if failed else 0


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _report_text(head: dict[str, object], checks: list[str], tail: dict[str, object]) -> str:
    """The bytes of ``json.dumps({**head, "checks": ..., **tail}, indent=2)``.

    ``checks`` holds the rows of :data:`_CHECK_ROW`, at least one: every
    sample gets a check per link of each chain.  ``head`` and ``tail`` go
    through ``json.dumps``, each as a top-level object whose braces are cut
    off, so their nested values keep the indentation of the whole.
    """
    head_text = json.dumps(head, indent=2)[:-2]
    tail_text = json.dumps(tail, indent=2)[2:]
    rows = ",\n".join(checks)
    return f'{head_text},\n  "checks": [\n{rows}\n  ],\n{tail_text}\n'


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
        if name not in mwdmod._CHAIN:
            raise ParameterDomainError(
                f"unknown mark {name!r}; choose from {', '.join(mwdmod._CHAIN)}"
            )
    dataset = mwdmod.load_mwd(args.input)
    # the sample and its memo are dropped before the plot is rendered
    marks = dict(zip(names, mwdmod._evaluate(_PowerSums(dataset.to_sample()), names, args.s)))
    text = (
        render_svg(dataset, marks) if suffix == ".svg" else render_csv(dataset, marks)
    )
    atomic_write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser(lazy=True)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (GinikitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
