"""Exception hierarchy.

Every error raised by this package derives from :class:`GinikitError` so
callers can catch one type.  The subclasses split errors by *who got it
wrong*, which is also how the command line maps them to exit codes:

* :class:`DataError` -- the numeric payload is unusable (non-positive values,
  NaN, length mismatch, malformed input file).  CLI exit code 1.
* :class:`ParameterDomainError` -- an exponent, order or configuration value
  is outside its documented domain.  CLI exit code 2.
* :class:`HypothesisError` -- a requested inequality check does not satisfy
  the hypotheses under which the inequality is known to hold.  CLI exit
  code 2.
* :class:`OracleDomainError` -- input is valid for the fast path but outside
  the certified domain of the extended-precision reference evaluator.  CLI
  exit code 1.

The wrong-type rule: every public entry refuses an argument of the wrong
class with one of these errors, never with a ``TypeError`` or
``ValueError`` from deeper down.  A sample, pair, order, grid, dataset or
report that is no instance of its class is refused by one ``isinstance``
check, with an error that names the type it got (a sample, dataset or
report) or shows the value (a pair, grid entry or order: ``got (1.0,
0.0)``).  A number parameter is a ``numbers.Real`` whose double is finite,
and ``_util._number`` alone decides it: a ``str``, ``bytes``, ``Decimal``
or numpy array is refused, though ``float()`` would take it, and an
accepted value acts as its double.  A value that is no number parameter,
and a path that is neither ``str`` nor ``os.PathLike``, get
:class:`ParameterDomainError`; a missing or unreadable file stays an
``OSError``.  An entry on a hot path may first test the common case by
exact type (``log_power_sum`` takes a ``float`` exponent and a ``bool``
``moments`` that way) and send every other argument to the full checks,
so which errors are raised, with which messages and in which order, does
not depend on that test.  The order rule: every parameter, each entry of
a ``grid``, ``custom`` or ``samples`` included, is checked before any
evaluation; only the oracle's domain is checked per sample and pair, when
they are reached.  ``tests/test_arguments.py`` sweeps every callable of
``ginikit.__all__``, the report writers of :mod:`ginikit.mwd` and
:mod:`ginikit.plotting` with hostile values to hold the rules.
"""

from __future__ import annotations


class GinikitError(Exception):
    """Base class for all errors raised by ginikit."""


class DataError(GinikitError):
    """Sample or dataset values are unusable."""


class IngestionError(DataError):
    """A file could not be parsed; carries the offending location."""

    def __init__(self, message: str, *, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParameterDomainError(GinikitError):
    """An exponent or configuration parameter is outside its domain."""


class HypothesisError(GinikitError):
    """An inequality check was requested outside its hypotheses."""


class OracleDomainError(GinikitError):
    """Input lies outside the certified domain of the reference evaluator."""
