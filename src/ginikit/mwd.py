"""Polymer molecular-weight-distribution analysis.

Every classical molecular-weight average of a discrete distribution
(species of molar mass M_i at molar abundance n_i) is a Gini mean of the
mass list weighted by abundance:

    Mn = G(1, 0)          number average
    Mw = G(2, 1)          weight average
    Mz = G(3, 2)          z average
    Mv = G(1+s, 1)        viscosity average, Mark-Houwink exponent s
    G(1, 1-b), G(2-b, 1-b)  hydrodynamic / sedimentation calibration means
    G(3/2, -3/2)          effective-parameter mean used in transport fits

so the monotonicity machinery in :mod:`ginikit.audit` directly yields the
familiar chain Mn <= Mv <= Mw <= Mz (strict for any polydisperse sample).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._util import atomic_write_text, format_double, read_text
from .errors import DataError, IngestionError, ParameterDomainError
from .means import gini_mean
from .sample import ExponentPair, PositiveSample

__all__ = [
    "Species",
    "MWDataset",
    "CustomMean",
    "MeansReport",
    "number_average",
    "weight_average",
    "z_average",
    "viscosity_average",
    "hydrodynamic_mean",
    "sedimentation_mean",
    "effective_parameter_mean",
    "polydispersity",
    "generate_flory",
    "generate_poisson",
    "generate_lognormal",
    "load_mwd",
    "save_mwd",
    "save_report",
    "report_to_json",
    "report_to_text",
]

CSV_HEADER = "molar_mass,abundance"


class Species(NamedTuple):
    molar_mass: float
    abundance: float


class MWDataset:
    """A discrete molecular-weight distribution.

    Backed by numpy arrays (``masses``, ``abundances``) so generated
    distributions with many species stay cheap; the ``species`` property
    materializes ``(molar_mass, abundance)`` pairs on demand.
    """

    __slots__ = ("masses", "abundances", "label")

    masses: np.ndarray
    abundances: np.ndarray
    label: str

    def __init__(
        self,
        species: Iterable[tuple[float, float]] | None = None,
        label: str = "",
        *,
        masses: Iterable[float] | None = None,
        abundances: Iterable[float] | None = None,
    ) -> None:
        if species is not None:
            if masses is not None or abundances is not None:
                raise DataError("pass either species pairs or mass/abundance arrays, not both")
            pairs = list(species)
            if not pairs:
                raise DataError("dataset must contain at least one species")
            masses = [pair[0] for pair in pairs]
            abundances = [pair[1] for pair in pairs]
        if masses is None or abundances is None:
            raise DataError("dataset needs both masses and abundances")
        mass_arr = np.asarray(masses, dtype=np.float64)
        abundance_arr = np.asarray(abundances, dtype=np.float64)
        if mass_arr.ndim != 1 or abundance_arr.ndim != 1:
            raise DataError("masses and abundances must be one-dimensional")
        if mass_arr.size == 0:
            raise DataError("dataset must contain at least one species")
        if mass_arr.shape != abundance_arr.shape:
            raise DataError(
                f"got {mass_arr.size} masses but {abundance_arr.size} abundances"
            )
        if not np.all(np.isfinite(mass_arr)) or not np.all(mass_arr > 0.0):
            raise DataError("molar masses must be finite and strictly positive")
        if not np.all(np.isfinite(abundance_arr)) or not np.all(abundance_arr > 0.0):
            raise DataError("abundances must be finite and strictly positive")
        mass_arr.flags.writeable = False
        abundance_arr.flags.writeable = False
        object.__setattr__(self, "masses", mass_arr)
        object.__setattr__(self, "abundances", abundance_arr)
        object.__setattr__(self, "label", str(label))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MWDataset is immutable")

    @property
    def n(self) -> int:
        return int(self.masses.size)

    @property
    def species(self) -> tuple[Species, ...]:
        return tuple(
            Species(float(m), float(a)) for m, a in zip(self.masses, self.abundances)
        )

    def to_sample(self) -> PositiveSample:
        """The underlying positive weighted sample (masses weighted by abundance)."""
        return PositiveSample(self.masses, self.abundances)

    def __repr__(self) -> str:
        return f"MWDataset(n={self.n}, label={self.label!r})"


# ---------------------------------------------------------------------------
# Averages
# ---------------------------------------------------------------------------


def number_average(dataset: MWDataset) -> float:
    """Mn: abundance-weighted mean mass, G(1, 0)."""
    return gini_mean(dataset.to_sample(), ExponentPair(1.0, 0.0))


def weight_average(dataset: MWDataset) -> float:
    """Mw: mass-fraction-weighted mean mass, G(2, 1)."""
    return gini_mean(dataset.to_sample(), ExponentPair(2.0, 1.0))


def z_average(dataset: MWDataset) -> float:
    """Mz: z-fraction-weighted mean mass, G(3, 2)."""
    return gini_mean(dataset.to_sample(), ExponentPair(3.0, 2.0))


def viscosity_average(dataset: MWDataset, s: float = 0.7) -> float:
    """Mv(s) = G(1+s, 1) for a Mark-Houwink exponent s in (0, 2].

    At s = 1 this is Mw by the same evaluation, and for s in (0, 1) it sits
    strictly between Mn and Mw on polydisperse samples.
    """
    if not (isinstance(s, (int, float)) and math.isfinite(s) and 0.0 < s <= 2.0):
        raise ParameterDomainError(f"viscosity exponent s must be in (0, 2], got {s!r}")
    return gini_mean(dataset.to_sample(), ExponentPair(1.0 + s, 1.0))


def hydrodynamic_mean(dataset: MWDataset, b: float) -> float:
    """G(1, 1-b) for a calibration exponent b in (0, 1)."""
    _check_calibration_exponent(b)
    return gini_mean(dataset.to_sample(), ExponentPair(1.0, 1.0 - b))


def sedimentation_mean(dataset: MWDataset, b: float) -> float:
    """G(2-b, 1-b) for b in (0, 1); a Lehmer mean of order 2-b."""
    _check_calibration_exponent(b)
    return gini_mean(dataset.to_sample(), ExponentPair(2.0 - b, 1.0 - b))


def effective_parameter_mean(dataset: MWDataset) -> float:
    """G(3/2, -3/2), the symmetric mean used in effective-parameter fits."""
    return gini_mean(dataset.to_sample(), ExponentPair(1.5, -1.5))


def _check_calibration_exponent(b: float) -> None:
    if not (isinstance(b, (int, float)) and math.isfinite(b) and 0.0 < b < 1.0):
        raise ParameterDomainError(f"calibration exponent b must be in (0, 1), got {b!r}")


class CustomMean(NamedTuple):
    p: float
    q: float
    value: float


@dataclass(frozen=True)
class MeansReport:
    """All standard averages of one distribution, plus any custom means.

    Satisfies Mn <= Mv <= Mw <= Mz, pdi = Mw/Mn >= 1, z_ratio = Mz/Mw >= 1
    and schulz_u = pdi - 1 >= 0 for every dataset (equalities exactly on
    monodisperse ones).  ``s`` records the Mark-Houwink exponent used for
    Mv.  Custom entries carry their exponent pair in canonical (p >= q)
    order.
    """

    Mn: float
    Mw: float
    Mz: float
    Mv: float
    pdi: float
    z_ratio: float
    schulz_u: float
    s: float
    custom: tuple[CustomMean, ...] = ()


def polydispersity(
    dataset: MWDataset,
    s: float = 0.7,
    custom: Sequence[tuple[float, float]] = (),
) -> MeansReport:
    """Compute the full :class:`MeansReport` of a distribution.

    ``s`` is the Mark-Houwink exponent for Mv, restricted to (0, 1] here so
    the reported chain Mn <= Mv <= Mw <= Mz is guaranteed; call
    :func:`viscosity_average` directly for s in (1, 2].  ``custom`` lists
    extra exponent pairs to evaluate and append.
    """
    if not (isinstance(s, (int, float)) and math.isfinite(s) and 0.0 < s <= 1.0):
        raise ParameterDomainError(
            f"report viscosity exponent s must be in (0, 1], got {s!r}"
        )
    sample = dataset.to_sample()
    mn = gini_mean(sample, ExponentPair(1.0, 0.0))
    mw = gini_mean(sample, ExponentPair(2.0, 1.0))
    mz = gini_mean(sample, ExponentPair(3.0, 2.0))
    mv = gini_mean(sample, ExponentPair(1.0 + s, 1.0))
    pdi = mw / mn
    extras = tuple(
        CustomMean(pair.p, pair.q, gini_mean(sample, pair))
        for pair in (ExponentPair(p, q) for p, q in custom)
    )
    return MeansReport(
        Mn=mn,
        Mw=mw,
        Mz=mz,
        Mv=mv,
        pdi=pdi,
        z_ratio=mz / mw,
        schulz_u=pdi - 1.0,
        s=float(s),
        custom=extras,
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_flory(m0: float, x: float, tail_tol: float = 1e-12) -> MWDataset:
    """Most-probable (geometric chain-length) distribution.

    Chain length k has probability (1-x) x**(k-1) for conversion x in (0, 1);
    species k gets molar mass k*m0.  The series is truncated at the smallest
    K with residual tail mass x**K < tail_tol and renormalized to sum to one.
    Closed forms for the untruncated distribution: Mn = m0/(1-x),
    pdi -> 1 + x.
    """
    _check_positive_finite(m0, "m0")
    if not (isinstance(x, (int, float)) and math.isfinite(x) and 0.0 < x < 1.0):
        raise ParameterDomainError(f"conversion x must be in (0, 1), got {x!r}")
    if not (isinstance(tail_tol, (int, float)) and 0.0 < tail_tol <= 1e-6):
        raise ParameterDomainError(
            f"tail_tol must be in (0, 1e-6], got {tail_tol!r}"
        )
    kmax = max(1, math.ceil(math.log(tail_tol) / math.log(x)))
    while x**kmax >= tail_tol:
        kmax += 1
    k = np.arange(1, kmax + 1, dtype=np.float64)
    weights = np.exp((k - 1.0) * math.log(x)) * (1.0 - x)
    weights /= weights.sum()
    return MWDataset(
        masses=k * m0,
        abundances=weights,
        label=f"flory(m0={format_double(m0)}, x={format_double(x)})",
    )


def generate_poisson(m0: float, mean_degree: float) -> MWDataset:
    """Chain-length distribution of an ideal living polymerization.

    Chain length is k = 1 + X with X Poisson(mean_degree): every chain has
    at least the initiator unit.  Species masses are k*m0.  The support is
    truncated where the Poisson tail is far below double precision (10
    standard deviations plus a constant) and renormalized.  For this family
    pdi - 1 = lam/(1+lam)**2 with lam = mean_degree, so pdi -> 1 for both
    tiny and huge mean degrees.
    """
    _check_positive_finite(m0, "m0")
    _check_positive_finite(mean_degree, "mean_degree")
    lam = float(mean_degree)
    half_width = 10.0 * math.sqrt(lam) + 30.0
    k_low = max(1, math.floor(1.0 + lam - half_width))
    k_high = math.ceil(1.0 + lam + half_width)
    k = np.arange(k_low, k_high + 1, dtype=np.float64)
    log_weights = (k - 1.0) * math.log(lam) - np.array(
        [math.lgamma(float(ki)) for ki in k]
    )
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()
    return MWDataset(
        masses=k * m0,
        abundances=weights,
        label=f"poisson(m0={format_double(m0)}, mean_degree={format_double(mean_degree)})",
    )


def generate_lognormal(median_mass: float, sigma: float, n_points: int) -> MWDataset:
    """Discretized lognormal distribution on a symmetric z-grid.

    ``n_points`` masses are placed at median * exp(sigma * z) for z equally
    spaced in [-4, 4], with abundances proportional to the standard normal
    density at z.  sigma = 0 degenerates to n_points identical species
    (a monodisperse dataset).
    """
    _check_positive_finite(median_mass, "median_mass")
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma >= 0.0):
        raise ParameterDomainError(f"sigma must be a finite real >= 0, got {sigma!r}")
    if int(n_points) != n_points or n_points < 2:
        raise ParameterDomainError(f"n_points must be an integer >= 2, got {n_points!r}")
    z = np.linspace(-4.0, 4.0, int(n_points))
    weights = np.exp(-0.5 * z * z)
    weights /= weights.sum()
    return MWDataset(
        masses=median_mass * np.exp(sigma * z),
        abundances=weights,
        label=(
            f"lognormal(median={format_double(median_mass)}, "
            f"sigma={format_double(sigma)}, n={int(n_points)})"
        ),
    )


def _check_positive_finite(value: float, name: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise ParameterDomainError(f"{name} must be a finite real > 0, got {value!r}")


# ---------------------------------------------------------------------------
# File input and output
# ---------------------------------------------------------------------------


def load_mwd(path: str | Path, format: str | None = None) -> MWDataset:
    """Load a distribution from CSV or JSON.

    ``format`` may be ``"csv"``, ``"json"`` or None to infer from the file
    suffix (``.json`` means JSON, anything else CSV).  Parse errors raise
    :class:`IngestionError` naming the offending line (CSV) or species index
    (JSON).
    """
    path = Path(path)
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    if format == "csv":
        return _load_csv(path)
    if format == "json":
        return _load_json(path)
    raise ParameterDomainError(f"format must be 'csv' or 'json', got {format!r}")


def _load_csv(path: Path) -> MWDataset:
    masses: list[float] = []
    abundances: list[float] = []
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise IngestionError(f"expected header '{CSV_HEADER}'", line=1)
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        fields = text.split(",")
        if len(fields) != 2:
            raise IngestionError(
                f"expected 2 comma-separated fields, got {len(fields)}", line=lineno
            )
        try:
            mass = float(fields[0])
            abundance = float(fields[1])
        except ValueError:
            raise IngestionError(f"could not parse numbers from {text!r}", line=lineno)
        if not (math.isfinite(mass) and mass > 0.0):
            raise IngestionError(
                f"molar_mass must be finite and > 0, got {fields[0].strip()}",
                line=lineno,
            )
        if not (math.isfinite(abundance) and abundance > 0.0):
            raise IngestionError(
                f"abundance must be finite and > 0, got {fields[1].strip()}",
                line=lineno,
            )
        masses.append(mass)
        abundances.append(abundance)
    if not masses:
        raise IngestionError("no species rows found", line=len(lines))
    return MWDataset(masses=masses, abundances=abundances, label=path.stem)


def _load_json(path: Path) -> MWDataset:
    text = read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"malformed JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(payload, dict) or "species" not in payload:
        raise IngestionError("JSON document must be an object with a 'species' array")
    rows = payload["species"]
    if not isinstance(rows, list) or not rows:
        raise IngestionError("'species' must be a non-empty array")
    masses: list[float] = []
    abundances: list[float] = []
    for index, row in enumerate(rows):
        if (
            not isinstance(row, dict)
            or "molar_mass" not in row
            or "abundance" not in row
        ):
            raise IngestionError(
                f"species[{index}] must be an object with molar_mass and abundance"
            )
        mass, abundance = row["molar_mass"], row["abundance"]
        if not isinstance(mass, (int, float)) or isinstance(mass, bool):
            raise IngestionError(f"species[{index}].molar_mass must be a number")
        if not isinstance(abundance, (int, float)) or isinstance(abundance, bool):
            raise IngestionError(f"species[{index}].abundance must be a number")
        if not (math.isfinite(mass) and mass > 0.0):
            raise IngestionError(
                f"species[{index}].molar_mass must be finite and > 0, got {mass}"
            )
        if not (math.isfinite(abundance) and abundance > 0.0):
            raise IngestionError(
                f"species[{index}].abundance must be finite and > 0, got {abundance}"
            )
        masses.append(float(mass))
        abundances.append(float(abundance))
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise IngestionError("'label' must be a string when present")
    return MWDataset(masses=masses, abundances=abundances, label=label)


def save_mwd(dataset: MWDataset, path: str | Path, format: str | None = None) -> None:
    """Write a distribution to CSV or JSON (atomically).

    Numbers are written in shortest round-trip form, so save/load preserves
    every species bit for bit.
    """
    path = Path(path)
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    if format == "csv":
        rows = [CSV_HEADER]
        rows.extend(
            f"{format_double(m)},{format_double(a)}"
            for m, a in zip(dataset.masses, dataset.abundances)
        )
        atomic_write_text(path, "\n".join(rows) + "\n")
    elif format == "json":
        payload = {
            "label": dataset.label,
            "species": [
                {"molar_mass": float(m), "abundance": float(a)}
                for m, a in zip(dataset.masses, dataset.abundances)
            ],
        }
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    else:
        raise ParameterDomainError(f"format must be 'csv' or 'json', got {format!r}")


def report_to_json(report: MeansReport) -> str:
    """Serialize a report as JSON at full double precision."""
    payload = {
        "Mn": report.Mn,
        "Mw": report.Mw,
        "Mz": report.Mz,
        "Mv": report.Mv,
        "pdi": report.pdi,
        "z_ratio": report.z_ratio,
        "schulz_u": report.schulz_u,
        "s": report.s,
        "custom": [
            {"p": entry.p, "q": entry.q, "value": entry.value}
            for entry in report.custom
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(report: MeansReport) -> str:
    """Serialize a report as an aligned key-value table."""
    rows: list[tuple[str, float]] = [
        ("Mn", report.Mn),
        ("Mw", report.Mw),
        ("Mz", report.Mz),
        (f"Mv(s={format_double(report.s)})", report.Mv),
        ("pdi", report.pdi),
        ("z_ratio", report.z_ratio),
        ("schulz_u", report.schulz_u),
    ]
    rows.extend(
        (f"G({format_double(entry.p)},{format_double(entry.q)})", entry.value)
        for entry in report.custom
    )
    width = max(len(key) for key, _ in rows)
    lines = [f"{key:<{width}}  {format_double(value)}" for key, value in rows]
    return "\n".join(lines) + "\n"


def save_report(report: MeansReport, path: str | Path, format: str = "json") -> None:
    """Write a report to disk as JSON or text (atomically)."""
    if format == "json":
        atomic_write_text(path, report_to_json(report))
    elif format == "text":
        atomic_write_text(path, report_to_text(report))
    else:
        raise ParameterDomainError(f"format must be 'json' or 'text', got {format!r}")
