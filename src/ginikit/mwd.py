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
These pairs are written once, in :data:`_AVERAGES`; the helpers below, the
report, the CLI's plot marks and its default audit grid all take them from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from ._util import (
    _is_finite_real, _shown, atomic_write_text, atomic_writer, format_double, read_text
)
from .errors import DataError, IngestionError, ParameterDomainError
from .means import _PowerSums
from .sample import ExponentPair, PositiveSample, _as_positive_array

__all__ = [
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

#: Most species a generator may produce.  The species count is worked out
#: from the parameters and checked before anything is allocated; the cap
#: sits about 100x above a 102k-species Flory distribution (x = 0.99973).
MAX_SPECIES = 10_000_000

#: Rows formatted per chunk by :func:`save_mwd`: enough that the per-chunk
#: cost vanishes, few enough that no copy of the whole file's text is held.
_WRITE_BLOCK_ROWS = 8192

#: Every character that a plain CSV body, read in bulk, may hold.
_PLAIN_CSV_CHARS = b"0123456789.eE+-,\n"

#: Characters of CSV body parsed per block (rounded up to a whole row).
_PARSE_BLOCK_CHARS = 1 << 16


class MWDataset:
    """A discrete molecular-weight distribution.

    Built from two arrays of one length, ``masses`` and ``abundances``, of
    strictly positive finite reals, so generated distributions with many
    species stay cheap.  A writeable array is copied, so the caller's buffer
    is never frozen or aliased; a read-only float64 array is taken as it
    is.  Both arrays are kept frozen.
    """

    __slots__ = ("masses", "abundances", "label")

    masses: np.ndarray
    abundances: np.ndarray
    label: str

    def __init__(
        self, *, masses: Iterable[float], abundances: Iterable[float], label: str = ""
    ) -> None:
        mass_arr = _as_positive_array(masses, "molar masses")
        abundance_arr = _as_positive_array(abundances, "abundances")
        if mass_arr.shape != abundance_arr.shape:
            raise DataError(
                f"got {mass_arr.size} masses but {abundance_arr.size} abundances"
            )
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

    def to_sample(self) -> PositiveSample:
        """The underlying positive weighted sample (masses weighted by abundance)."""
        return PositiveSample(self.masses, self.abundances)

    def __repr__(self) -> str:
        return f"MWDataset(n={self.n}, label={self.label!r})"


_T = TypeVar("_T")


def _checked(value: object, kind: type[_T]) -> _T:
    """``value``, unless it is no ``kind``: the one check of a dataset or report argument."""
    if isinstance(value, kind):
        return value
    raise DataError(f"expected {kind.__name__}, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Averages
# ---------------------------------------------------------------------------


def _check_viscosity_exponent(s: float) -> None:
    if not (_is_finite_real(s) and 0.0 < s <= 2.0):
        raise ParameterDomainError(f"viscosity exponent s must be in (0, 2], got {_shown(s)}")


def _check_calibration_exponent(b: float) -> None:
    if not (_is_finite_real(b) and 0.0 < b < 1.0):
        raise ParameterDomainError(f"calibration exponent b must be in (0, 1), got {_shown(b)}")


#: Each named average: the domain check of its parameter (None when it takes
#: none) and its exponent pair (p, q) as a function of that parameter, which
#: is s for Mv and b for the two calibration means.
_AVERAGES = {
    "Mn": (None, lambda _: (1.0, 0.0)),
    "Mw": (None, lambda _: (2.0, 1.0)),
    "Mz": (None, lambda _: (3.0, 2.0)),
    "Mv": (_check_viscosity_exponent, lambda s: (1.0 + s, 1.0)),
    "hydrodynamic": (_check_calibration_exponent, lambda b: (1.0, 1.0 - b)),
    "sedimentation": (_check_calibration_exponent, lambda b: (2.0 - b, 1.0 - b)),
    "effective": (None, lambda _: (1.5, -1.5)),
}

#: The chain Mn <= Mv <= Mw <= Mz: the averages of every report and the plot marks.
_CHAIN = ("Mn", "Mv", "Mw", "Mz")


def _pair(name: str, parameter: float | None = None) -> tuple[float, float]:
    """The exponent pair of a named average, after its parameter's domain check."""
    check, pair = _AVERAGES[name]
    if check is not None:
        check(parameter)
    return pair(parameter)


def _evaluate(
    sums: _PowerSums, names: Iterable[str], parameter: float | None = None
) -> list[float]:
    """The named averages of one sample, in the order of ``names``.

    ``sums`` is the sample's power-sum memo, so an exponent shared by two
    averages (S_1 of Mn, Mv and Mw, say) is formed once; a caller that
    evaluates more pairs of the sample passes the same memo on.
    ``parameter`` goes to each name that takes one; every pair is checked
    before any is evaluated, then they are evaluated in order, each value
    bit for bit :func:`ginikit.means.gini_mean` of its pair.
    """
    pairs = [ExponentPair(*_pair(name, parameter)) for name in names]
    return [sums.gini(pair) for pair in pairs]


def _average(dataset: MWDataset, name: str, parameter: float | None = None) -> float:
    """One named average of a dataset."""
    return _evaluate(_PowerSums(_checked(dataset, MWDataset).to_sample()), [name], parameter)[0]


def number_average(dataset: MWDataset) -> float:
    """Mn: abundance-weighted mean mass, G(1, 0)."""
    return _average(dataset, "Mn")


def weight_average(dataset: MWDataset) -> float:
    """Mw: mass-fraction-weighted mean mass, G(2, 1)."""
    return _average(dataset, "Mw")


def z_average(dataset: MWDataset) -> float:
    """Mz: z-fraction-weighted mean mass, G(3, 2)."""
    return _average(dataset, "Mz")


def viscosity_average(dataset: MWDataset, s: float = 0.7) -> float:
    """Mv(s) = G(1+s, 1) for a Mark-Houwink exponent s in (0, 2].

    At s = 1 this is Mw by the same evaluation, and for s in (0, 1) it sits
    strictly between Mn and Mw on polydisperse samples.
    """
    return _average(dataset, "Mv", s)


def hydrodynamic_mean(dataset: MWDataset, b: float) -> float:
    """G(1, 1-b) for a calibration exponent b in (0, 1)."""
    return _average(dataset, "hydrodynamic", b)


def sedimentation_mean(dataset: MWDataset, b: float) -> float:
    """G(2-b, 1-b) for b in (0, 1); a Lehmer mean of order 2-b."""
    return _average(dataset, "sedimentation", b)


def effective_parameter_mean(dataset: MWDataset) -> float:
    """G(3/2, -3/2), the symmetric mean used in effective-parameter fits."""
    return _average(dataset, "effective")


class CustomMean(NamedTuple):
    p: float
    q: float
    value: float


@dataclass(frozen=True)
class MeansReport:
    """All standard averages of one distribution, plus any custom means.

    Satisfies Mn <= Mv <= Mw <= Mz, pdi = Mw/Mn >= 1, z_ratio = Mz/Mw >= 1
    and schulz_u = pdi - 1 >= 0 for every dataset (equalities exactly on
    monodisperse ones); :func:`polydispersity` enforces the chain where
    rounding would break it.  ``s`` records the Mark-Houwink exponent used for
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


def _custom_pair(entry: object) -> ExponentPair:
    """The exponent pair of one ``custom`` entry of :func:`polydispersity`."""
    try:
        p, q = entry
    except (TypeError, ValueError):
        raise ParameterDomainError(
            f"custom entries must be exponent pairs (p, q), got {_shown(entry)}"
        ) from None
    return ExponentPair(p, q)


def polydispersity(
    dataset: MWDataset,
    s: float = 0.7,
    custom: Sequence[tuple[float, float]] = (),
) -> MeansReport:
    """Compute the full :class:`MeansReport` of a distribution.

    ``s`` is the Mark-Houwink exponent for Mv, restricted to (0, 1] here so
    the reported chain Mn <= Mv <= Mw <= Mz is guaranteed; call
    :func:`viscosity_average` directly for s in (1, 2].  ``custom`` lists
    extra exponent pairs to evaluate and append; a ``custom`` that cannot be
    iterated, or an entry that is no pair, raises
    :class:`ParameterDomainError`.

    The chain is a theorem, but each average is rounded on its own, and at
    extreme spreads the log-domain rounding can invert two neighbours by a
    few ulps of their logs (masses {1e-308, 1e308} give Mz about 2e-13
    below Mw).  Such an inversion is clamped: Mw is raised to Mn, Mz to
    Mw, and Mv is moved into [Mn, Mw].  A chain already in order is
    reported exactly as computed.

    The chain and the custom pairs share one power-sum memo of the sample,
    so each distinct exponent costs one kernel call: 5 for the chain at
    any s (S_0, S_1, S_{1+s}, S_2, S_3), 8 for the CLI's ``--b 0.5
    --custom 1.5:-1.5`` report.  The pairs are evaluated lazily and in
    order, the chain first, then each custom pair as it is read, so values,
    errors and their order are those of :func:`ginikit.means.gini_mean`
    called pair by pair.
    """
    if not (_is_finite_real(s) and 0.0 < s <= 1.0):
        raise ParameterDomainError(
            f"report viscosity exponent s must be in (0, 1], got {_shown(s)}"
        )
    try:
        entries = iter(custom)
    except TypeError:
        raise ParameterDomainError(
            f"custom must be an iterable of exponent pairs, got {_shown(custom)}"
        ) from None
    sums = _PowerSums(_checked(dataset, MWDataset).to_sample())
    mn, mv, mw, mz = _evaluate(sums, _CHAIN, s)
    mw = max(mw, mn)
    mz = max(mz, mw)
    mv = min(max(mv, mn), mw)
    pdi = mw / mn
    extras = tuple(
        CustomMean(pair.p, pair.q, sums.gini(pair))
        for pair in (_custom_pair(entry) for entry in entries)
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
    K with residual tail mass x**K < tail_tol and renormalized to sum to one;
    trailing species whose abundance underflows to zero are dropped.
    Closed forms for the untruncated distribution: Mn = m0/(1-x),
    pdi -> 1 + x.
    """
    m0 = _positive_double(m0, "m0")
    if not (_is_finite_real(x) and 0.0 < float(x) < 1.0):
        raise ParameterDomainError(f"conversion x must be in (0, 1), got {_shown(x)}")
    x = float(x)
    if not (_is_finite_real(tail_tol) and 0.0 < float(tail_tol) <= 1e-6):
        raise ParameterDomainError(
            f"tail_tol must be in (0, 1e-6], got {_shown(tail_tol)}"
        )
    tol = float(tail_tol)
    kmax = max(1, math.ceil(math.log(tol) / math.log(x)))
    while x**kmax >= tol:
        kmax += 1
    _check_species_count(kmax, "flory")
    _check_mass_range(
        m0, kmax * m0, f"flory parameters (m0 = {_shown(m0)}, chains up to {kmax} units)"
    )
    k = np.arange(1, kmax + 1, dtype=np.float64)
    weights = np.exp((k - 1.0) * math.log(x)) * (1.0 - x)
    weights /= weights.sum()
    k, weights = _without_underflowed_tail(k, weights)
    return _dataset_of_fresh_arrays(
        k * m0, weights, f"flory(m0={format_double(m0)}, x={format_double(x)})"
    )


def generate_poisson(m0: float, mean_degree: float) -> MWDataset:
    """Chain-length distribution of an ideal living polymerization.

    Chain length is k = 1 + X with X Poisson(mean_degree): every chain has
    at least the initiator unit.  Species masses are k*m0.  The support is
    truncated where the Poisson tail is far below double precision (10
    standard deviations plus a constant) and renormalized, and trailing
    species whose abundance underflows to zero are dropped.  For this family
    pdi - 1 = lam/(1+lam)**2 with lam = mean_degree, so pdi -> 1 for both
    tiny and huge mean degrees.
    """
    m0 = _positive_double(m0, "m0")
    lam = _positive_double(mean_degree, "mean_degree")
    half_width = 10.0 * math.sqrt(lam) + 30.0
    k_low = max(1, math.floor(1.0 + lam - half_width))
    k_high = math.ceil(1.0 + lam + half_width)
    _check_species_count(k_high - k_low + 1, "poisson")
    _check_mass_range(
        k_low * m0,
        k_high * m0,
        f"poisson parameters (m0 = {_shown(m0)}, chains up to {k_high} units)",
    )
    k = np.arange(k_low, k_high + 1, dtype=np.float64)
    log_weights = (k - 1.0) * math.log(lam) - np.array(
        [math.lgamma(float(ki)) for ki in k]
    )
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()
    k, weights = _without_underflowed_tail(k, weights)
    return _dataset_of_fresh_arrays(
        k * m0,
        weights,
        f"poisson(m0={format_double(m0)}, mean_degree={format_double(lam)})",
    )


def generate_lognormal(median_mass: float, sigma: float, n_points: int) -> MWDataset:
    """Discretized lognormal distribution on a symmetric z-grid.

    ``n_points`` masses are placed at median * exp(sigma * z) for z equally
    spaced in [-4, 4], with abundances proportional to the standard normal
    density at z.  sigma = 0 degenerates to n_points identical species
    (a monodisperse dataset).
    """
    median_mass = _positive_double(median_mass, "median_mass")
    if not (_is_finite_real(sigma) and float(sigma) >= 0.0):
        raise ParameterDomainError(f"sigma must be a finite real >= 0, got {_shown(sigma)}")
    sigma = float(sigma)
    try:
        integral = int(n_points) == n_points
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinity
        integral = False
    if not integral or n_points < 2:
        raise ParameterDomainError(f"n_points must be an integer >= 2, got {_shown(n_points)}")
    _check_species_count(int(n_points), "lognormal")
    # the grid's ends are z = -4 and 4 exactly: its extreme masses, formed as below
    with np.errstate(over="ignore", under="ignore"):
        lowest, highest = median_mass * np.exp(sigma * np.array([-4.0, 4.0]))
    _check_mass_range(
        lowest,
        highest,
        f"lognormal parameters (median = {_shown(median_mass)}, sigma = {_shown(sigma)})",
    )
    z = np.linspace(-4.0, 4.0, int(n_points))
    weights = np.exp(-0.5 * z * z)
    weights /= weights.sum()
    return _dataset_of_fresh_arrays(
        median_mass * np.exp(sigma * z),
        weights,
        f"lognormal(median={format_double(median_mass)}, "
        f"sigma={format_double(sigma)}, n={int(n_points)})",
    )


def _dataset_of_fresh_arrays(
    masses: np.ndarray, abundances: np.ndarray, label: str
) -> MWDataset:
    """A dataset that takes over arrays built here and held by no one else.

    ``MWDataset`` copies a writeable array, because its caller may still
    change it; arrays already frozen are taken as they are, without a copy.
    """
    masses.flags.writeable = False
    abundances.flags.writeable = False
    return MWDataset(masses=masses, abundances=abundances, label=label)


def _check_species_count(count: int, model: str) -> None:
    if count > MAX_SPECIES:
        need = count if _is_finite_real(count) else "more than 1e308"
        raise ParameterDomainError(
            f"{model} parameters need {need} species, more than the cap of {MAX_SPECIES}"
        )


def _check_mass_range(lowest: float, highest: float, parameters: str) -> None:
    """Refuse parameters whose extreme molar masses, formed as the generator
    forms them, leave the positive doubles; called before the support is built."""
    if not math.isfinite(highest):
        raise ParameterDomainError(
            f"{parameters} put the largest molar mass above the largest double"
        )
    if lowest == 0.0:
        raise ParameterDomainError(
            f"{parameters} put the smallest molar mass below the smallest positive double"
        )


def _without_underflowed_tail(
    k: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the trailing species whose abundance underflowed to zero.

    They hold no representable mass, so the weights still sum to one.  The
    mode keeps a positive weight, and both supports start where the weights
    are far above underflow (Flory at its mode, Poisson at most 10 standard
    deviations plus 30 below it), so the zeros are a suffix.
    """
    keep = int(np.flatnonzero(weights)[-1]) + 1
    return k[:keep], weights[:keep]


def _positive_double(value: float, name: str) -> float:
    """``value`` as the double a generator computes with, which must be > 0.

    The range is checked on the double, so a positive value that rounds to
    0.0 is refused here rather than failing later in the arithmetic.
    """
    if not (_is_finite_real(value) and float(value) > 0.0):
        raise ParameterDomainError(f"{name} must be a finite real > 0, got {_shown(value)}")
    return float(value)


# ---------------------------------------------------------------------------
# File input and output
# ---------------------------------------------------------------------------


def _is_json(path: Path) -> bool:
    """True when ``path`` names a JSON file: its suffix is ``.json`` in any case."""
    return path.suffix.lower() == ".json"


def load_mwd(path: str | Path) -> MWDataset:
    """Load a distribution from JSON if the suffix is ``.json``, else from CSV.

    The suffix is matched without regard to case.  Parse errors raise
    :class:`IngestionError` naming the offending line (CSV) or species index
    (JSON).
    """
    path = Path(path)
    if _is_json(path):
        return _parse_json(read_text(path))
    return _parse_csv(read_text(path), path.stem)


def _parse_csv(text: str, label: str) -> MWDataset:
    """The distribution in CSV ``text``: in bulk when plain, else row by row."""
    columns = _parse_plain_csv(text)
    if columns is None:
        return _scan_csv(text, label)
    return MWDataset(masses=columns[0], abundances=columns[1], label=label)


def _parse_plain_csv(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The two columns of a plain CSV file in bulk, or None for any other text.

    Plain means the exact header line, then rows of two non-empty fields of
    :data:`_PLAIN_CSV_CHARS` with a comma between them, a newline after each
    (optional after the last), and every number finite and positive.  numpy's
    reader converts a field as ``float`` does (``PyOS_string_to_double``), so
    the columns are :func:`_scan_csv`'s bit for bit.  Other text, valid or
    not, gets None and goes to the scanner, so every error message and line
    number is the scanner's.  The body is read in blocks of whole rows, so
    only one block's strings are alive.
    """
    header = CSV_HEADER + "\n"
    if not text.startswith(header) or len(text) == len(header):
        return None
    blocks: list[np.ndarray] = []
    start = len(header)
    while start < len(text):
        cut = text.find("\n", start + _PARSE_BLOCK_CHARS)
        stop = len(text) if cut < 0 else cut + 1
        block = text[start:stop]
        plain = block.isascii() and not block.encode().translate(None, _PLAIN_CSV_CHARS)
        if not plain or block.startswith("\n"):  # blank lines alone make loadtxt warn
            return None
        lines = block.split("\n")
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # an empty field, unequal rows, "1e" or "1-2"
            return None
        # loadtxt skips a blank line, so a block that held one comes out a row short
        if rows.shape != (len(lines) - (not lines[-1]), 2):
            return None
        blocks.append(rows)
        start = stop
    return _positive_columns(np.concatenate(blocks).T.copy())


def _positive_columns(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows 0 and 1 of a fresh (2, n) array, frozen, when every entry is
    finite and positive; else None."""
    if not (np.isfinite(columns).all() and (columns > 0.0).all()):
        return None
    columns.flags.writeable = False
    return columns[0], columns[1]


def _scan_csv(text: str, label: str) -> MWDataset:
    """Parse CSV text row by row, naming the line of the first bad row."""
    masses: list[float] = []
    abundances: list[float] = []
    lines = text.splitlines()
    # the header is the first non-blank line; line numbers count from the
    # file's first line all the same
    first = next((index for index, raw in enumerate(lines) if raw.strip()), 0)
    if not lines or lines[first].strip() != CSV_HEADER:
        raise IngestionError(f"expected header '{CSV_HEADER}'", line=first + 1)
    for lineno, raw in enumerate(lines[first + 1 :], start=first + 2):
        row = raw.strip()
        if not row:
            continue
        fields = row.split(",")
        if len(fields) != 2:
            raise IngestionError(
                f"expected 2 comma-separated fields, got {len(fields)}", line=lineno
            )
        try:
            mass = float(fields[0])
            abundance = float(fields[1])
        except ValueError:
            raise IngestionError(f"could not parse numbers from {row!r}", line=lineno)
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
    return MWDataset(masses=masses, abundances=abundances, label=label)


def _parse_json(text: str) -> MWDataset:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"malformed JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting too deep
        raise IngestionError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict) or "species" not in payload:
        raise IngestionError("JSON document must be an object with a 'species' array")
    rows = payload["species"]
    if not isinstance(rows, list) or not rows:
        raise IngestionError("'species' must be a non-empty array")
    columns = _bulk_json_columns(rows)
    masses, abundances = _scan_json_rows(rows) if columns is None else columns
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise IngestionError("'label' must be a string when present")
    return MWDataset(masses=masses, abundances=abundances, label=label)


def _bulk_json_columns(rows: list[object]) -> tuple[np.ndarray, np.ndarray] | None:
    """The two columns of ``species`` rows in bulk, or None unless every row is
    an object whose two fields are finite positive floats.

    Rows that are not plain, valid or not, get None and go to
    :func:`_scan_json_rows`, which alone raises errors; so each message and
    ``species[i]`` index is the scanner's.  An int, a bool, a missing key or
    a row that is not an object all go there, as does ``NaN`` or
    ``Infinity``.  The columns are the scanner's bit for bit, since a Python
    float is a double.
    """
    try:
        masses = [row["molar_mass"] for row in rows]
        abundances = [row["abundance"] for row in rows]
    except (TypeError, KeyError):  # a row that is no object, or lacks a key
        return None
    if set(map(type, masses)) != {float} or set(map(type, abundances)) != {float}:
        return None
    return _positive_columns(np.array([masses, abundances], dtype=np.float64))


def _scan_json_rows(rows: list[object]) -> tuple[list[float], list[float]]:
    """Check ``species`` rows one at a time, naming the index of the first bad one."""
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
        masses.append(_json_number(row["molar_mass"], f"species[{index}].molar_mass"))
        abundances.append(_json_number(row["abundance"], f"species[{index}].abundance"))
    return masses, abundances


def _json_number(value: object, what: str) -> float:
    """A JSON number as a finite positive double, or an error naming ``what``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise IngestionError(f"{what} must be a number")
    if not (_is_finite_real(value) and value > 0.0):
        raise IngestionError(f"{what} must be finite and > 0, got {_shown(value)}")
    return float(value)


def save_mwd(dataset: MWDataset, path: str | Path) -> None:
    """Write a distribution as JSON if the suffix is ``.json``, else as CSV (atomically).

    The suffix is matched as :func:`load_mwd` matches it.  Numbers are
    written in shortest round-trip form, so save/load preserves every
    species bit for bit.  CSV fields follow :func:`format_double`
    (``28.0`` is written ``28``); JSON is laid out as
    ``json.dumps(payload, indent=2)`` lays it out.  Rows are formatted and
    written a block at a time.
    """
    dataset = _checked(dataset, MWDataset)
    path = Path(path)
    chunks = _json_chunks(dataset) if _is_json(path) else _csv_chunks(dataset)
    with atomic_writer(path) as handle:
        handle.writelines(chunks)


def _row_blocks(dataset: MWDataset) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Views of the masses and abundances, :data:`_WRITE_BLOCK_ROWS` rows at a time."""
    for start in range(0, dataset.n, _WRITE_BLOCK_ROWS):
        stop = start + _WRITE_BLOCK_ROWS
        yield dataset.masses[start:stop], dataset.abundances[start:stop]


def _holds_integral(values: np.ndarray) -> bool:
    """True when some entry of ``values`` is an integral double."""
    return bool((np.trunc(values) == values).any())


def _csv_chunks(dataset: MWDataset) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for masses, abundances in _row_blocks(dataset):
        rows = "".join([f"{m!r},{a!r}\n" for m, a in zip(masses.tolist(), abundances.tolist())])
        # format_double's rule for a whole block: a repr ends in ".0" exactly
        # when its double is integral (and below 1e16), and only then is the
        # ".0" dropped; a block with no integral double has none to drop
        if _holds_integral(masses) or _holds_integral(abundances):
            rows = rows.replace(".0,", ",").replace(".0\n", "\n")
        yield rows


def _json_chunks(dataset: MWDataset) -> Iterator[str]:
    # the bytes of json.dumps(payload, indent=2), whose encoder leaves C for
    # pure Python once indent is set; repr of a float is the shortest
    # round-trip form that json writes too
    yield '{\n  "label": %s,\n  "species": [\n' % json.dumps(dataset.label)
    separator = ""
    for masses, abundances in _row_blocks(dataset):
        yield separator + ",\n".join(
            [
                f'    {{\n      "molar_mass": {m!r},\n      "abundance": {a!r}\n    }}'
                for m, a in zip(masses.tolist(), abundances.tolist())
            ]
        )
        separator = ",\n"
    yield "\n  ]\n}\n"


def report_to_json(report: MeansReport) -> str:
    """Serialize a report as JSON at full double precision, keyed by field."""
    report = _checked(report, MeansReport)
    payload = {field.name: getattr(report, field.name) for field in fields(report)}
    payload["custom"] = [entry._asdict() for entry in report.custom]
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(report: MeansReport) -> str:
    """Serialize a report as an aligned key-value table."""
    report = _checked(report, MeansReport)
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


def save_report(report: MeansReport, path: str | Path) -> None:
    """Write a report (atomically): as :func:`report_to_json` if the suffix is
    ``.json``, else as :func:`report_to_text`.

    The suffix is matched as :func:`load_mwd` matches it.
    """
    path = Path(path)
    atomic_write_text(path, report_to_json(report) if _is_json(path) else report_to_text(report))
