"""The four benchmark workloads: their inputs, CLI calls and output checks.

A workload turns the run's seed into the argv lists of its ops and into the
files those ops read.  The program only ever sees that argv and those files.
One op is the short sequence of ``ginikit.cli.main`` calls that a user would
make for one result (``mwd-report`` then ``plot``, say), and every op's
output is checked against the contract it promises before it counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

from ginikit import generate_flory, generate_poisson, load_mwd

#: Conversion of the generated Flory distribution (102,324 species).
FLORY_X = "0.99973"
#: Conversion and species count of the Flory file that mwd_report reads: an
#: op of about 0.45 s, so that a run holds enough ops for a tail percentile.
REPORT_X = 0.999
REPORT_SPECIES = 27_618
#: Checks per sample in the default audit grid (4 + 1 chain links).
CHECKS_PER_SAMPLE = 5
REL_TOL = 1e-12

#: One CLI call's result: exit code, captured stdout, captured stderr.
CallOutput = tuple[int, str, str]


class CheckFailed(Exception):
    """An op ran, but its output broke a contract the program documents."""


def _expect_exit_zero(outputs: list[CallOutput]) -> None:
    for rc, _, err in outputs:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {err.strip()[:200]}")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _seeded_m0(seed: int) -> float:
    # Monomer masses from ethylene (28) to bulky styrenics (~150 g/mol).
    return random.Random(seed).uniform(28.0, 150.0)


class Workload:
    """Inputs, argv and checks of one named workload."""

    name = ""
    why = ""

    def prepare(self, workdir: Path, seed: int) -> None:
        """Build the inputs and references of one run, outside any timing."""
        raise NotImplementedError

    def argvs(self, index: int) -> list[list[str]]:
        """The CLI calls that make up op ``index``."""
        raise NotImplementedError

    def check(self, outputs: list[CallOutput]) -> int:
        """Check one op's outputs; return its work items or raise CheckFailed."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once after the last op, outside any timing."""


class Verify(Workload):
    """``verify --random <seed+i> N`` on the default grid, optionally with the oracle."""

    def __init__(self, name: str, why: str, count: int, oracle: bool) -> None:
        self.name = name
        self.why = why
        self.count = count
        self.oracle = oracle

    def prepare(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.report = workdir / "report.json"

    def argvs(self, index: int) -> list[list[str]]:
        argv = ["verify", "--random", str(self.seed + index), str(self.count)]
        if self.oracle:
            argv += ["--oracle", "--report", str(self.report)]
        return [argv]

    def check(self, outputs: list[CallOutput]) -> int:
        _expect_exit_zero(outputs)
        lines = outputs[0][1].splitlines()
        checks = self.count * CHECKS_PER_SAMPLE
        per_sample = Counter(int(line.split()[1]) for line in lines if line.startswith("sample "))
        if sorted(per_sample) != list(range(self.count)) or set(per_sample.values()) != {
            CHECKS_PER_SAMPLE
        }:
            raise CheckFailed(f"expected {CHECKS_PER_SAMPLE} check lines per sample")
        summary = dict(field.split("=") for field in lines[-1].split())
        if summary.get("failed") != "0" or summary.get("checks") != str(checks):
            raise CheckFailed(f"summary line reads {lines[-1]!r}")
        if not self.oracle:
            return checks
        oracle_line = next((line for line in lines if line.startswith("oracle: ")), "")
        fields = dict(f.split("=") for f in oracle_line.split() if "=" in f)
        if not oracle_line.endswith("-> ok") or float(fields["max_rel_error"]) > REL_TOL:
            raise CheckFailed(f"oracle line reads {oracle_line!r}")
        report = json.loads(self.report.read_text(encoding="utf-8"))
        cases = int(fields["cases"])
        if report["all_passed"] is not True or report["oracle"]["cases"] != cases:
            raise CheckFailed("report JSON does not record a passing oracle run")
        return cases


class MwdReport(Workload):
    """``mwd-report`` then ``plot`` on one seeded Flory CSV file."""

    name = "mwd_report"
    why = (
        "large-n means (ordering plus kernel) and the read side of mwd: CSV ingest, "
        "the report and the SVG plot of a 27.6k-species Flory distribution"
    )

    def prepare(self, workdir: Path, seed: int) -> None:
        k = np.arange(1, REPORT_SPECIES + 1, dtype=np.float64)
        masses = k * _seeded_m0(seed)
        abundances = (1.0 - REPORT_X) * np.exp((k - 1.0) * math.log(REPORT_X))
        abundances /= abundances.sum()
        self.input = workdir / "flory.csv"
        rows = "".join(f"{m!r},{a!r}\n" for m, a in zip(masses.tolist(), abundances.tolist()))
        self.input.write_text("molar_mass,abundance\n" + rows, encoding="utf-8")
        self.svg = workdir / "flory.svg"
        # Reference averages as ratios of exactly rounded sums (repr round-trips,
        # so these are the sums over the file's own numbers).
        s0, s1, s2, s3 = (math.fsum(abundances * masses**j) for j in range(4))
        self.reference = {"Mn": s1 / s0, "Mw": s2 / s1, "Mz": s3 / s2}
        self.first: tuple[str, str] | None = None

    def argvs(self, index: int) -> list[list[str]]:
        report = ["mwd-report", "--input", str(self.input), "--b", "0.5"]
        report += ["--custom", "1.5:-1.5", "--format", "json"]
        return [report, ["plot", "--input", str(self.input), "--out", str(self.svg)]]

    def check(self, outputs: list[CallOutput]) -> int:
        _expect_exit_zero(outputs)
        report = json.loads(outputs[0][1])
        for key, expected in self.reference.items():
            if abs(report[key] - expected) > REL_TOL * expected:
                raise CheckFailed(f"{key}={report[key]!r} but the exact ratio is {expected!r}")
        if not report["Mn"] <= report["Mv"] <= report["Mw"] <= report["Mz"]:
            raise CheckFailed("the chain Mn <= Mv <= Mw <= Mz does not hold")
        current = (outputs[0][1], _digest(self.svg))
        if self.first is None:
            self.first = current
        elif current != self.first:
            raise CheckFailed("report or SVG bytes differ from the first op's")
        return 2 * REPORT_SPECIES


class MwdGenerate(Workload):
    """``generate flory`` then ``generate poisson`` with a seeded monomer mass."""

    name = "mwd_generate"
    why = (
        "the write side of mwd (generators, save_mwd, format_double, atomic writes), "
        "with no means, no ingest and no oracle"
    )

    def prepare(self, workdir: Path, seed: int) -> None:
        self.m0 = _seeded_m0(seed)
        self.csv = workdir / "flory.csv"
        self.json = workdir / "poisson.json"
        self.expected = {
            self.csv: generate_flory(self.m0, float(FLORY_X)),
            self.json: generate_poisson(self.m0, 1e6),
        }
        self.rows = sum(dataset.n for dataset in self.expected.values())
        self.first: list[str] | None = None

    def argvs(self, index: int) -> list[list[str]]:
        m0 = repr(self.m0)
        return [
            ["generate", "flory", "--m0", m0, "--x", FLORY_X, "--out", str(self.csv)],
            ["generate", "poisson", "--m0", m0, "--mean-degree", "1e6", "--out", str(self.json)],
        ]

    def check(self, outputs: list[CallOutput]) -> int:
        _expect_exit_zero(outputs)
        current = [_digest(path) for path in self.expected]
        if self.first is None:
            self.first = current
        elif current != self.first:
            raise CheckFailed("generated files differ from the first op's")
        return self.rows

    def finish(self) -> None:
        for path, dataset in self.expected.items():
            loaded = load_mwd(path)
            if (
                loaded.masses.tobytes() != dataset.masses.tobytes()
                or loaded.abundances.tobytes() != dataset.abundances.tobytes()
            ):
                raise CheckFailed(f"{path.name} does not load back bit for bit")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Verify(
            "verify_oracle",
            "the north-star command: the mpmath oracle does most of the work, "
            "plus the audit and the JSON report",
            count=100,
            oracle=True,
        ),
        Verify(
            "verify_audit",
            "many tiny means calls (n in [2, 16]), so per-call Python overhead in "
            "audit, means and sample dominates; no oracle, no files",
            count=200,
            oracle=False,
        ),
        MwdReport(),
        MwdGenerate(),
    )
}
