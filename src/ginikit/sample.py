"""Validated input types: positive weighted samples and exponent pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import _backend
from ._kernels_py import VECTOR_MIN_N
from ._util import _number, _shown
from .errors import DataError, ParameterDomainError

__all__ = ["PositiveSample", "ExponentPair"]


def _positive_array_and_range(
    data: Iterable[float], what: str
) -> tuple[np.ndarray, float, float]:
    """``data`` as a 1-D float64 array, with its smallest and largest entries.

    Raises DataError unless ``data`` is a nonempty 1-D sequence of finite,
    strictly positive reals.
    """
    try:
        if isinstance(data, np.ndarray) and data.flags.writeable:
            # never freeze (or alias) a buffer the caller still owns
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
    # min and max propagate NaN, and an infinity of either sign is one of
    # them, so these two reductions decide both checks
    lo = float(arr.min())
    hi = float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError(f"{what} must be finite (no NaN or infinity)")
    if not lo > 0.0:
        raise DataError(f"{what} must be strictly positive")
    return arr, lo, hi


def _as_positive_array(data: Iterable[float], what: str) -> np.ndarray:
    """``data`` as a 1-D float64 array (see :func:`_positive_array_and_range`)."""
    return _positive_array_and_range(data, what)[0]


class PositiveSample:
    """A sample of strictly positive values with strictly positive weights.

    The public arrays ``values`` and ``weights`` keep the caller's order.
    The logarithms of both are taken once at construction and kept only
    in private copies sorted by (ln a, ln w): every mean in this package
    sums over those copies, in that order, whatever the exponent.  So a
    permuted sample gives the same bits, and no evaluation sorts again.  The
    largest |ln a| is read once from the two ends of the sorted ln a, for
    the exponent domain check of every evaluation.  All four arrays are
    frozen (non-writable), so a sample can be shared freely.

    With the pure kernel, a sample of fewer than ``VECTOR_MIN_N`` values also
    keeps the two sorted log arrays as Python float lists, made once, which
    its loop reads (see :func:`ginikit.means.log_power_sum`).  Any other
    sample keeps ``None`` there, and its kernel reads the arrays.
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
        "_loop_lists",
    )

    values: np.ndarray
    weights: np.ndarray
    is_uniform: bool
    min_value: float
    max_value: float

    def __init__(
        self, values: Iterable[float], weights: Iterable[float] | None = None
    ) -> None:
        vals, min_value, max_value = _positive_array_and_range(values, "values")
        if weights is None:
            wts = np.ones_like(vals)
        else:
            wts = _as_positive_array(weights, "weights")
            if wts.shape != vals.shape:
                raise DataError(
                    f"weights length {wts.size} does not match values length {vals.size}"
                )
        log_vals = np.log(vals)
        log_wts = np.log(wts)
        order = np.lexsort((log_wts, log_vals))
        sorted_log_vals = log_vals[order]
        sorted_log_wts = log_wts[order]
        for arr in (vals, wts, sorted_log_vals, sorted_log_wts):
            arr.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "is_uniform", min_value == max_value)
        object.__setattr__(self, "min_value", min_value)
        object.__setattr__(self, "max_value", max_value)
        object.__setattr__(self, "_sorted_log_values", sorted_log_vals)
        object.__setattr__(self, "_sorted_log_weights", sorted_log_wts)
        object.__setattr__(
            self,
            "_max_abs_log_value",
            max(-sorted_log_vals.item(0), sorted_log_vals.item(-1)),
        )
        object.__setattr__(
            self,
            "_loop_lists",
            (sorted_log_vals.tolist(), sorted_log_wts.tolist())
            if _backend.BACKEND == "python" and vals.size < VECTOR_MIN_N
            else None,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PositiveSample is immutable")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"PositiveSample(n={self.n}, uniform={self.is_uniform})"


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


def _checked_samples(samples: Iterable[object]) -> Iterator[PositiveSample]:
    """``samples``, read lazily, each checked by :func:`_checked_sample` when it
    is reached; a ``samples`` that cannot be iterated is refused at once."""
    try:
        entries = iter(samples)
    except TypeError:
        raise DataError(
            f"samples must be an iterable of PositiveSample objects, got {_shown(samples)}"
        ) from None
    return (_checked_sample(sample, index) for index, sample in enumerate(entries))


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
