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
import os
import struct
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from . import _backend
from ._util import (
    _checked_path, _from_both_ends, _lines, _number, _parameter, _shown,
    atomic_write_text, atomic_writer, format_double, read_text,
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

#: Rows formatted per block by :func:`save_mwd`: enough that the per-block
#: cost vanishes, few enough that no copy of the whole file's text is held
#: and that the caller, which formats a block before it looks for the
#: child's again, passes the meeting point by little (``BENCH_one_writer.json``).
_WRITE_BLOCK_ROWS = 2048

#: Most rows of a file that :func:`save_mwd` writes in one process: below
#: it a fork and its reap cost more than they save (``BENCH_split_writer.json``).
_FORK_MIN_ROWS = 8192

#: Every character that a plain CSV body, read in bulk, may hold.
_PLAIN_CSV_CHARS = b"0123456789.eE+-,\n"

#: Characters of CSV body parsed per block (rounded up to a whole row).
_PARSE_BLOCK_CHARS = 1 << 16

#: Least length of a plain CSV text whose blocks a forked child parses from
#: the back: below it a fork and its reap cost more than they save
#: (``BENCH_both_ends.json``).
_FORK_MIN_CHARS = 10 * _PARSE_BLOCK_CHARS

#: Least sample size times the exponents a forked child can take for which
#: it forms the log sums of averages from the last exponent back, per kernel
#: backend.  A child starts after this process, so of ``k`` distinct
#: exponents it can take at most those past the middle, ``(k - 1) // 2``:
#: none of two, one of three or four, three of the report's eight.  The
#: compiled kernel is about five times faster, and two processes running it
#: at once each run at about half speed, so its fork pays only on larger
#: samples: its value lies between the largest measured split that lost
#: (three exponents at n = 1,105,228) and the smallest that won above it
#: (eight at n = 394,716, 1,184,148 terms; ``BENCH_verify_overhead.json``).
_FORK_MIN_TERMS = {"python": 60_000, "compiled": 1_150_000}

#: A log sum as a forked child sends it: one native double.
_LOG_SUM = struct.Struct("=d")

#: Where a forked child of :func:`save_mwd` put a block's bytes in its temp
#: file: their offset and their size, as native unsigned 64-bit integers.
_BLOCK_EXTENT = struct.Struct("=QQ")


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


_VISCOSITY = ("viscosity exponent s must be in (0, 2]", lambda s: 0.0 < s <= 2.0)
_CALIBRATION = ("calibration exponent b must be in (0, 1)", lambda b: 0.0 < b < 1.0)

#: Each named average: its parameter's domain for :func:`ginikit._util._parameter`
#: (None when it takes none) and its exponent pair (p, q) as a function of
#: that parameter's double, which is s for Mv and b for the calibration means.
_AVERAGES = {
    "Mn": (None, lambda _: (1.0, 0.0)),
    "Mw": (None, lambda _: (2.0, 1.0)),
    "Mz": (None, lambda _: (3.0, 2.0)),
    "Mv": (_VISCOSITY, lambda s: (1.0 + s, 1.0)),
    "hydrodynamic": (_CALIBRATION, lambda b: (1.0, 1.0 - b)),
    "sedimentation": (_CALIBRATION, lambda b: (2.0 - b, 1.0 - b)),
    "effective": (None, lambda _: (1.5, -1.5)),
}

#: The chain Mn <= Mv <= Mw <= Mz: the averages of every report and the plot marks.
_CHAIN = ("Mn", "Mv", "Mw", "Mz")


def _pair(name: str, parameter: float | None = None) -> tuple[float, float]:
    """The exponent pair of a named average, formed from its parameter's double
    after the domain check."""
    domain, pair = _AVERAGES[name]
    if domain is not None:
        parameter = _parameter(parameter, *domain)
    return pair(parameter)


def _evaluate(
    sums: _PowerSums, names: Iterable[str], parameter: float | None = None
) -> list[float]:
    """The named averages of one sample, in the order of ``names``.

    ``sums`` is the sample's power-sum memo, so an exponent shared by two
    averages (S_1 of Mn, Mv and Mw, say) is formed once; a caller that
    evaluates more pairs of the sample passes the same memo on.
    ``parameter`` goes to each name that takes one; every pair is checked
    before any is evaluated, then they are evaluated in order by
    :func:`_ginis`, each value bit for bit :func:`ginikit.means.gini_mean`
    of its pair.  A distinct exponent costs one kernel call, in this
    process or, for a large sample, in a forked child.
    """
    pairs = [ExponentPair(*_pair(name, parameter)) for name in names]
    return _ginis(sums, pairs)


def _ginis(sums: _PowerSums, pairs: Sequence[ExponentPair]) -> list[float]:
    """G of each of ``pairs`` on the sample of ``sums``, in order.

    Each value is ``sums.gini(pair)``, bit for bit :func:`gini_mean` of its
    pair, and the pairs are evaluated one by one in order, so errors and
    their order are those of ``gini_mean`` pair by pair.  The exponents of
    the pairs that the memo does not hold are numbered in the order they
    first appear; a uniform sample reads no log sum and numbers none.  When
    the sample's size times the count of them a child can take is at least
    the kernel backend's :data:`_FORK_MIN_TERMS`, a forked child forms their
    log sums from the last exponent back and sends each as a native double
    (:func:`ginikit._util._from_both_ends`).  This process takes one into
    the memo when the walk first reaches its exponent and the child has sent
    it, and otherwise forms it here if a secant reads it.  So each log sum
    formed costs one kernel call, in one process or the other.  The child
    raises nothing here: at an exponent the kernel refuses, it stops, and
    this process raises when it gets there.
    """
    exponents = [] if sums.sample.is_uniform else list(
        dict.fromkeys(p for pair in pairs for p in (pair.p, pair.q) if p not in sums)
    )
    numbers = {p: index for index, p in enumerate(exponents)}
    taken = (len(exponents) - 1) // 2
    split = taken > 0 and sums.sample.n * taken >= _FORK_MIN_TERMS[_backend.BACKEND]
    count = len(exponents) if split else 0
    values = []
    with _from_both_ends(
        count, lambda index: _LOG_SUM.pack(sums.log_sum(exponents[index]))
    ) as received:
        for pair in pairs:
            for p in (pair.p, pair.q):
                # each number once, in order: a tangent leaves its exponent unkept
                index = numbers.pop(p, None)
                if index is not None:
                    sent = received(index)
                    if sent is not None:
                        sums.keep(p, _LOG_SUM.unpack(sent)[0])
            values.append(sums.gini(pair))
    return values


def _in_order(chain: dict[str, float], s: float) -> dict[str, float]:
    """The averages of ``chain``, computed Mn, Mw, Mz and, if it holds one,
    Mv at the Mark-Houwink exponent ``s``, with each inversion that
    rounding made clamped away.

    The chain is Mn <= Mv <= Mw <= Mz for s in (0, 1] and Mn <= Mw <= Mv
    <= Mz for s in (1, 2].  Mw is raised to Mn and Mz to Mw, and Mv is
    moved between its two neighbours, so it moves no other average.  A
    chain already in order comes back exactly as computed.
    """
    mn = chain["Mn"]
    mw = max(chain["Mw"], mn)
    mz = max(chain["Mz"], mw)
    ordered = {"Mn": mn, "Mw": mw, "Mz": mz}
    if "Mv" in chain:
        low, high = (mn, mw) if s <= 1.0 else (mw, mz)
        ordered["Mv"] = min(max(chain["Mv"], low), high)
    return ordered


def _marks(dataset: MWDataset, names: Sequence[str], s: float) -> dict[str, float]:
    """The plot marks ``names``, each a name of :data:`_CHAIN`, of ``dataset``.

    Mn, Mw and Mz are evaluated for any mark, and Mv, at ``s``, only when it
    is asked for, on one power-sum memo of the sample, and clamped by
    :func:`_in_order`, so a mark is its :func:`polydispersity` value
    wherever that one is defined.  The default marks cost 5 kernel calls,
    and no marks none.
    """
    if not names:
        return {}
    evaluated = [name for name in _CHAIN if name != "Mv" or name in names]
    values = _evaluate(_PowerSums(dataset.to_sample()), evaluated, s)
    ordered = _in_order(dict(zip(evaluated, values)), s)
    return {name: ordered[name] for name in names}


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
    custom: Iterable[tuple[float, float]] = (),
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
    below Mw).  Such an inversion is clamped by :func:`_in_order`, as the
    plot marks are.  A chain already in order is reported exactly as
    computed.

    Every argument is checked before any mean is formed: ``s``, that
    ``custom`` is iterable, the dataset's type, then each ``custom`` entry,
    read once into a list.  :func:`_ginis` then evaluates the chain and each
    custom pair on one power-sum memo of the sample, so values, errors and
    their order are those of :func:`ginikit.means.gini_mean` pair by pair,
    and each distinct exponent costs one kernel call, here or in a forked
    child: 5 for the chain (S_0, S_1, S_{1+s}, S_2, S_3), 4 at s = 1, where
    Mv is Mw, and 8 for the CLI's ``--b 0.5 --custom 1.5:-1.5`` report.
    """
    s = _parameter(s, "report viscosity exponent s must be in (0, 1]", lambda v: 0.0 < v <= 1.0)
    try:
        entries = iter(custom)
    except TypeError:
        raise ParameterDomainError(
            f"custom must be an iterable of exponent pairs, got {_shown(custom)}"
        ) from None
    dataset = _checked(dataset, MWDataset)
    listed = [_custom_pair(entry) for entry in entries]
    chain = [ExponentPair(*_pair(name, s)) for name in _CHAIN]
    values = _ginis(_PowerSums(dataset.to_sample()), chain + listed)
    extras = tuple(
        CustomMean(pair.p, pair.q, value) for pair, value in zip(listed, values[len(chain) :])
    )
    ordered = _in_order(dict(zip(_CHAIN, values)), s)
    mn, mv, mw, mz = (ordered[name] for name in _CHAIN)
    pdi = mw / mn
    return MeansReport(
        Mn=mn,
        Mw=mw,
        Mz=mz,
        Mv=mv,
        pdi=pdi,
        z_ratio=mz / mw,
        schulz_u=pdi - 1.0,
        s=s,
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
    m0 = _parameter(m0, "m0 must be a finite real > 0", lambda v: v > 0.0)
    x = _parameter(x, "conversion x must be in (0, 1)", lambda v: 0.0 < v < 1.0)
    tol = _parameter(tail_tol, "tail_tol must be in (0, 1e-6]", lambda v: 0.0 < v <= 1e-6)
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
    m0 = _parameter(m0, "m0 must be a finite real > 0", lambda v: v > 0.0)
    lam = _parameter(mean_degree, "mean_degree must be a finite real > 0", lambda v: v > 0.0)
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
    median_mass = _parameter(
        median_mass, "median_mass must be a finite real > 0", lambda v: v > 0.0
    )
    sigma = _parameter(sigma, "sigma must be a finite real >= 0", lambda v: v >= 0.0)
    n_points = _parameter(
        n_points, "n_points must be an integer >= 2", lambda v: v >= 2, integral=True
    )
    _check_species_count(n_points, "lognormal")
    # the grid's ends are z = -4 and 4 exactly: its extreme masses, formed as below
    with np.errstate(over="ignore", under="ignore"):
        lowest, highest = median_mass * np.exp(sigma * np.array([-4.0, 4.0]))
    _check_mass_range(
        lowest,
        highest,
        f"lognormal parameters (median = {_shown(median_mass)}, sigma = {_shown(sigma)})",
    )
    z = np.linspace(-4.0, 4.0, n_points)
    weights = np.exp(-0.5 * z * z)
    weights /= weights.sum()
    return _dataset_of_fresh_arrays(
        median_mass * np.exp(sigma * z),
        weights,
        f"lognormal(median={format_double(median_mass)}, "
        f"sigma={format_double(sigma)}, n={n_points})",
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
        raise ParameterDomainError(
            f"{model} parameters need {count} species, more than the cap of {MAX_SPECIES}"
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
    (JSON).  A ``path`` that is neither a ``str`` nor an ``os.PathLike``
    raises :class:`ParameterDomainError`.

    A plain CSV text of at least :data:`_FORK_MIN_CHARS` characters is
    parsed by two processes when two CPUs are usable: a forked child parses
    its blocks from the last one back while this process parses from the
    first, and takes the child's rows once they have arrived (see
    :func:`_parse_plain_csv`).  Only this process raises, so the dataset, or
    the error, its message and its line, is that of one process.
    """
    path = _checked_path(path)
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
    number is the scanner's.  The body is read in blocks of whole rows
    (:func:`_plain_rows`), so only one block's strings are alive.

    A text of at least :data:`_FORK_MIN_CHARS` characters is parsed from
    both ends (:func:`ginikit._util._from_both_ends`): a forked child
    parses its blocks from the last one back, with the same checks, and
    sends each block's rows as native doubles; this process parses from the
    first block on and takes a block's rows from the child once they have
    arrived.  The child stops at a block that is not plain, and this
    process returns None when it gets there, so the columns, and every
    error, are those of one process.  A text whose first block holds a
    character no plain text holds (a CR, a space, a quote) gets None before
    any fork.
    """
    header = CSV_HEADER + "\n"
    if not text.startswith(header) or len(text) == len(header):
        return None
    cuts = _block_cuts(text, len(header))
    if not _plain_chars(text[cuts[0] : cuts[1]]):
        return None

    def sent_rows(index: int) -> bytes | None:  # the child's work
        rows = _plain_rows(text[cuts[index] : cuts[index + 1]])
        return None if rows is None else rows.tobytes()

    blocks: list[np.ndarray] = []
    count = len(cuts) - 1 if len(text) >= _FORK_MIN_CHARS else 0
    with _from_both_ends(count, sent_rows) as received:
        for index in range(len(cuts) - 1):
            sent = received(index)
            if sent is None:
                rows = _plain_rows(text[cuts[index] : cuts[index + 1]])
                if rows is None:
                    return None
            else:
                rows = np.frombuffer(sent).reshape(-1, 2)
            blocks.append(rows)
    return _positive_columns(np.concatenate(blocks).T.copy())


def _block_cuts(text: str, start: int) -> list[int]:
    """Where each block of the CSV body from ``start`` on begins, then the
    end of ``text``: a block runs :data:`_PARSE_BLOCK_CHARS` characters, then
    to the end of its row."""
    cuts = [start]
    while start < len(text):
        cut = text.find("\n", start + _PARSE_BLOCK_CHARS)
        start = len(text) if cut < 0 else cut + 1
        cuts.append(start)
    return cuts


def _plain_rows(block: str) -> np.ndarray | None:
    """The rows of one block of a CSV body as a (rows, 2) array, or None when
    the block is not plain (see :func:`_parse_plain_csv`)."""
    if not _plain_chars(block) or block.startswith("\n"):  # blank lines alone make loadtxt warn
        return None
    lines = block.split("\n")
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # an empty field, unequal rows, "1e" or "1-2"
        return None
    # loadtxt skips a blank line, so a block that held one comes out a row short
    if rows.shape != (len(lines) - (not lines[-1]), 2):
        return None
    return rows


def _plain_chars(block: str) -> bool:
    """True when every character of ``block`` is one of :data:`_PLAIN_CSV_CHARS`."""
    return block.isascii() and not block.encode().translate(None, _PLAIN_CSV_CHARS)


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
    lines = _lines(text)
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
    number = _number(value)
    if number is None or not number > 0.0:
        raise IngestionError(f"{what} must be finite and > 0, got {_shown(value)}")
    return number


def save_mwd(dataset: MWDataset, path: str | Path) -> None:
    """Write a distribution as JSON if the suffix is ``.json``, else as CSV (atomically).

    The suffix is matched as :func:`load_mwd` matches it.  Numbers are
    written in shortest round-trip form, so save/load preserves every
    species bit for bit.  CSV fields follow :func:`format_double`
    (``28.0`` is written ``28``); JSON is laid out as
    ``json.dumps(payload, indent=2)`` lays it out.  Rows are formatted and
    written a block (:data:`_WRITE_BLOCK_ROWS` rows) at a time.

    A file of more than :data:`_FORK_MIN_ROWS` rows is written from both
    ends (:func:`ginikit._util._from_both_ends`): a forked child formats
    its blocks from the last one back into an unnamed temp file beside
    ``path`` and sends where each one lies, while this process formats
    blocks from the first one on into :func:`atomic_writer`'s temp file.
    Once this process reaches a block that the child has sent, it copies
    that block and every later one from the child's file.  A child that
    fails or lags only sends less, and this process formats the rest; so
    the bytes are the same whoever formats a block, and only this process
    raises.  No child outlives the call.  A ``path`` that is neither a
    ``str`` nor an ``os.PathLike`` raises :class:`ParameterDomainError`.
    """
    dataset = _checked(dataset, MWDataset)
    path = _checked_path(path)
    block = _json_block if _is_json(path) else _csv_block
    count = -(-dataset.n // _WRITE_BLOCK_ROWS)
    # the child's file is made after the writer's own temp file, so a missing
    # directory raises the writer's error, which names path
    with atomic_writer(path) as handle, tempfile.TemporaryFile(dir=path.parent) as formatted:

        def sent_extent(index: int) -> bytes:  # the child's work
            data = block(dataset, index).encode("utf-8")
            offset = formatted.tell()
            formatted.write(data)
            formatted.flush()
            return _BLOCK_EXTENT.pack(offset, len(data))

        copying = False
        with _from_both_ends(count if dataset.n > _FORK_MIN_ROWS else 0, sent_extent) as received:
            for index in range(count):
                sent = received(index)
                if sent is None:
                    handle.write(block(dataset, index))
                    continue
                if not copying:
                    # the text written so far goes before the copied bytes
                    handle.flush()
                    copying = True
                # the child writes at the end of its file and this process
                # reads with pread, so neither moves the other's offset
                offset, size = _BLOCK_EXTENT.unpack(sent)
                handle.buffer.write(os.pread(formatted.fileno(), size, offset))


def _block_rows(dataset: MWDataset, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the masses and abundances of block ``index`` of ``dataset``."""
    start = index * _WRITE_BLOCK_ROWS
    stop = start + _WRITE_BLOCK_ROWS
    return dataset.masses[start:stop], dataset.abundances[start:stop]


def _holds_integral(values: np.ndarray) -> bool:
    """True when some entry of ``values`` is an integral double."""
    return bool((np.trunc(values) == values).any())


def _csv_block(dataset: MWDataset, index: int) -> str:
    """The text of block ``index`` of ``dataset``'s CSV file: the header on
    block 0, then the block's rows."""
    masses, abundances = _block_rows(dataset, index)
    text = "".join([f"{m!r},{a!r}\n" for m, a in zip(masses.tolist(), abundances.tolist())])
    # format_double's rule for a whole block: a repr ends in ".0" exactly
    # when its double is integral (and below 1e16), and only then is the
    # ".0" dropped; a block with no integral double has none to drop
    if _holds_integral(masses) or _holds_integral(abundances):
        text = text.replace(".0,", ",").replace(".0\n", "\n")
    return CSV_HEADER + "\n" + text if index == 0 else text


def _json_block(dataset: MWDataset, index: int) -> str:
    """The text of block ``index`` of ``dataset``'s JSON file: the head on
    block 0 and ``",\\n"`` before every later block, then the block's
    species, then the tail on the last block."""
    # the bytes of json.dumps(payload, indent=2), whose encoder leaves C for
    # pure Python once indent is set; repr of a float is the shortest
    # round-trip form that json writes too
    masses, abundances = _block_rows(dataset, index)
    species = ",\n".join(
        [
            f'    {{\n      "molar_mass": {m!r},\n      "abundance": {a!r}\n    }}'
            for m, a in zip(masses.tolist(), abundances.tolist())
        ]
    )
    head = ",\n" if index else '{\n  "label": %s,\n  "species": [\n' % json.dumps(dataset.label)
    tail = "\n  ]\n}\n" if (index + 1) * _WRITE_BLOCK_ROWS >= dataset.n else ""
    return head + species + tail


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

    The suffix is matched as :func:`load_mwd` matches it, and ``path`` is
    checked as there.
    """
    path = _checked_path(path)
    atomic_write_text(path, report_to_json(report) if _is_json(path) else report_to_text(report))
