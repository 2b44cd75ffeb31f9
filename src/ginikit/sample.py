"""Validated input types: positive weighted samples and exponent pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from . import _backend
from ._kernels_py import VECTOR_MIN_N
from ._util import _number, _shown
from .errors import DataError, ParameterDomainError

__all__ = ["PositiveSample", "ExponentPair"]


def _float_array(data: Iterable[float], what: str) -> np.ndarray:
    """``data`` as a nonempty 1-D float64 array, not yet checked for range.

    A writeable array is copied, never frozen or aliased, since the caller
    still owns it; a read-only float64 array is used as it is.
    """
    try:
        if isinstance(data, np.ndarray) and data.flags.writeable:
            arr = np.array(data, dtype=np.float64)
        else:
            arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} must be a sequence of real numbers") from exc
    except OverflowError:
        raise DataError(
            f"{what} must be finite, got an integer too large for a double"
        ) from None
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{what} must contain at least one entry")
    return arr


def _check_positive(arr: np.ndarray, what: str) -> None:
    """Raise DataError unless every entry of ``arr`` is finite and positive."""
    # min and max propagate NaN, and an infinity of either sign is one of
    # them, so these two reductions decide both checks
    lo = float(arr.min())
    hi = float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError(f"{what} must be finite (no NaN or infinity)")
    if not lo > 0.0:
        raise DataError(f"{what} must be strictly positive")


def _as_positive_array(data: Iterable[float], what: str) -> np.ndarray:
    """``data`` as a 1-D float64 array.

    Raises DataError unless ``data`` is a nonempty 1-D sequence of finite,
    strictly positive reals.
    """
    arr = _float_array(data, what)
    _check_positive(arr, what)
    return arr


class PositiveSample:
    """A sample of strictly positive values with strictly positive weights.

    The public arrays ``values`` and ``weights`` keep the caller's order.
    The logarithms of both are taken once at construction and kept only
    in private copies sorted by (ln a, ln w): every mean in this package
    sums over those copies, in that order, whatever the exponent.  So a
    permuted sample gives the same bits, and no evaluation sorts again.  The
    largest |ln a| is read once from the two ends of the sorted ln a, for
    the exponent domain check of every evaluation.  All four arrays are
    frozen (non-writable), so a sample can be shared freely.  The samples
    of ``verify --random`` are built in one batch (:func:`_sample_batch`),
    and each one's four arrays are frozen views of four buffers shared by
    the batch, which stay alive while any of its samples does.

    Each sample also keeps what its kernel reads (see
    :func:`ginikit.means.log_power_sum`): with the pure kernel, a sample of
    fewer than ``VECTOR_MIN_N`` values keeps its sorted logs as Python float
    lists, made once, for the loop; any other keeps the sorted arrays.
    """

    __slots__ = (
        "values",
        "weights",
        "is_uniform",
        "min_value",
        "max_value",
        "_sorted_log_values",
        "_sorted_log_weights",
        "_max_abs_log_value",
        "_kernel_logs",
        "_kernel_log_weights",
    )

    values: np.ndarray
    weights: np.ndarray
    is_uniform: bool
    min_value: float
    max_value: float

    def __init__(
        self, values: Iterable[float], weights: Iterable[float] | None = None
    ) -> None:
        vals = _float_array(values, "values")
        if weights is None:
            wts = np.ones_like(vals)
        else:
            try:
                wts = _float_array(weights, "weights")
                if wts.shape != vals.shape:
                    _check_positive(wts, "weights")
                    raise DataError(
                        f"weights length {wts.size} does not match values length {vals.size}"
                    )
            except DataError:
                # the values are checked before the weights, and both before
                # the lengths
                _check_positive(vals, "values")
                raise
        _sample_batch(vals, wts, (vals.size,), [self])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PositiveSample is immutable")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"PositiveSample(n={self.n}, uniform={self.is_uniform})"


#: The run starts of a batch of one sample.  It is left writeable, since
#: ``reduceat`` takes read-only indices on a slower path.
_FIRST_ENTRY = np.zeros(1, dtype=np.intp)


def _sample_batch(
    values: np.ndarray,
    weights: np.ndarray,
    lengths: Sequence[int],
    samples: list[PositiveSample] | None = None,
) -> list[PositiveSample]:
    """The samples of consecutive runs of ``values`` and ``weights``.

    Run i holds the next ``lengths[i]`` (at least 1) entries of the two
    float64 arrays, which must be 1-D, of length ``sum(lengths)``, and owned
    by the caller's batch: they are frozen and each sample keeps views of
    them (a batch of one keeps the arrays themselves).  A run that is not
    finite and strictly positive raises the :class:`DataError` that
    ``PositiveSample`` raises on it alone.  This is the one body that logs,
    sorts and ranges samples: it fills ``samples`` (new ones by default, one
    per run), and ``PositiveSample.__init__`` runs it on a batch of one.
    Every numpy call here covers the whole batch; what each sample adds is
    its views, slots and list slices.
    """
    count = len(lengths)
    if count == 1:
        bounds, starts = [0, lengths[0]], _FIRST_ENTRY
    else:
        bounds = list(accumulate(lengths, initial=0))
        starts = np.array(bounds[:-1], dtype=np.intp)
    lows = np.minimum.reduceat(values, starts).tolist()
    highs = np.maximum.reduceat(values, starts).tolist()
    runs = zip(
        bounds, bounds[1:], lows, highs,
        np.minimum.reduceat(weights, starts).tolist(),
        np.maximum.reduceat(weights, starts).tolist(),
    )
    for start, end, lo, hi, wlo, whi in runs:
        # min and max propagate NaN, and an infinity of either sign is one
        # of them, so these four decide every check of the run
        if not (lo > 0.0 and hi < math.inf and wlo > 0.0 and whi < math.inf):
            _check_positive(values[start:end], "values")
            _check_positive(weights[start:end], "weights")
    log_values = np.log(values)
    log_weights = np.log(weights)
    # the run index is the primary key, so each run keeps its own
    # (ln a, ln w) order; one run needs no such key
    keys = (log_weights, log_values)
    if count > 1:
        keys += (np.repeat(np.arange(count), lengths),)
    order = np.lexsort(keys)
    sorted_log_values = log_values[order]
    sorted_log_weights = log_weights[order]
    buffers = (values, weights, sorted_log_values, sorted_log_weights)
    for arr in buffers:
        arr.setflags(write=False)
    # the pure kernel's loop reads lists, made once for the batch if any run
    # is short enough to take them; every other run hands its kernel arrays
    lists = None
    if _backend.BACKEND == "python" and min(lengths) < VECTOR_MIN_N:
        lists = (sorted_log_values.tolist(), sorted_log_weights.tolist())
    if samples is None:
        samples = [object.__new__(PositiveSample) for _ in range(count)]
    setattr_ = object.__setattr__
    for sample, start, end, lo, hi in zip(samples, bounds, bounds[1:], lows, highs):
        # one run keeps the whole arrays, so a read-only array the caller
        # passed is the sample's own, not a view of it
        vals, wts, slv, slw = (
            buffers if count == 1 else (arr[start:end] for arr in buffers)
        )
        setattr_(sample, "values", vals)
        setattr_(sample, "weights", wts)
        setattr_(sample, "is_uniform", lo == hi)
        setattr_(sample, "min_value", lo)
        setattr_(sample, "max_value", hi)
        setattr_(sample, "_sorted_log_values", slv)
        setattr_(sample, "_sorted_log_weights", slw)
        setattr_(sample, "_max_abs_log_value", max(-slv.item(0), slv.item(-1)))
        if lists is not None and end - start < VECTOR_MIN_N:
            slv, slw = lists[0][start:end], lists[1][start:end]
        setattr_(sample, "_kernel_logs", slv)
        setattr_(sample, "_kernel_log_weights", slw)
    return samples


@dataclass(frozen=True)
class ExponentPair:
    """An unordered pair of finite exponents, stored canonically as p >= q.

    The Gini mean is symmetric in its two exponents, so the constructor
    swaps them into canonical order; ``ExponentPair(0, 2) == ExponentPair(2, 0)``.
    Exponents must be number parameters (:func:`ginikit._util._number`) and
    are stored as their doubles: the p -> +/-inf limits are served exactly by
    ``extreme_value`` instead of approximated here.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        p = _number(self.p, not_real="exponents must be real numbers")
        q = _number(self.q, not_real="exponents must be real numbers")
        if p is None or q is None:
            raise ParameterDomainError(
                f"exponents must be finite, got p={_shown(self.p)}, q={_shown(self.q)}"
            )
        if p < q:
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def gap(self) -> float:
        """Nonnegative difference p - q in canonical order."""
        return self.p - self.q


def _checked_sample(sample: object, index: int) -> PositiveSample:
    """``sample``, a call's ``index``-th, unless it is no :class:`PositiveSample`."""
    if isinstance(sample, PositiveSample):
        return sample
    raise DataError(f"sample {index} must be a PositiveSample, got {type(sample).__name__}")


def _checked_samples(samples: Iterable[object]) -> tuple[PositiveSample, ...]:
    """``samples``, read once, as a tuple; each entry is checked by
    :func:`_checked_sample`, and all of them before the caller evaluates any."""
    try:
        entries = iter(samples)
    except TypeError:
        raise DataError(
            f"samples must be an iterable of PositiveSample objects, got {_shown(samples)}"
        ) from None
    return tuple(_checked_sample(sample, index) for index, sample in enumerate(entries))


def _checked_pairs(grid: Iterable[object]) -> tuple[ExponentPair, ...]:
    """``grid``, read once, as a tuple; each entry must be an :class:`ExponentPair`."""
    try:
        entries = iter(grid)
    except TypeError:
        raise ParameterDomainError(
            f"a grid must be an iterable of ExponentPair objects, got {_shown(grid)}"
        ) from None
    pairs = tuple(entries)
    for pair in pairs:
        if not isinstance(pair, ExponentPair):
            raise ParameterDomainError(
                f"grid entries must be ExponentPair objects, got {_shown(pair)}"
            )
    return pairs
