"""One sweep of the argument boundary of the whole public API.

Every callable of ``ginikit.__all__``, ``mwd.report_to_json``,
``mwd.report_to_text`` and ``plotting.__all__`` that takes arguments gets
each ``HOSTILE`` value in each of its public parameters, in turn, with a
valid argument in every other place.  Each call must return or raise a
:class:`ginikit.GinikitError`, the rule :mod:`ginikit.errors` states, and a
sample, dataset, report, pair, order or grid is refused with its own class
of error.  The one exception is a ``str`` path of a file that does not
exist, which stays an ``OSError``, as a missing file does everywhere.  A
refused call writes no file.

Two more sweeps hold the rule for number parameters: a value that is no
``numbers.Real`` is refused, though ``float()`` would take it, and a real of
another type acts as its double.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import ginikit
from ginikit import (
    DataError,
    ExponentPair,
    GinikitError,
    MWDataset,
    ParameterDomainError,
    ParameterOrder,
    PositiveSample,
    generate_lognormal,
    mwd,
    plotting,
    polydispersity,
    save_mwd,
)

from helpers import HOSTILE

#: Where the sweep may take an ``OSError``: a path parameter given a ``str``.
PATH_PARAMETERS = {"path"}

#: The parameters that take a number (see ``ginikit._util._number``).
NUMBER_PARAMETERS = {
    "p", "q", "r", "b", "s", "m0", "x", "tail_tol", "mean_degree", "median_mass", "sigma",
    "n_points", "precision_digits",
}

#: The error class that refuses a hostile value in each typed parameter:
#: a sample, dataset or report is data, a pair, order or grid a parameter.
TYPED_PARAMETERS = {
    **dict.fromkeys(("sample", "samples", "dataset", "report"), DataError),
    **dict.fromkeys(("params", "lower", "upper", "order", "grid"), ParameterDomainError),
}

#: The typed parameters that take a hostile value: the empty ones, ``[]``
#: and an empty array, which hold no sample or pair to refuse.
TAKE_EMPTY = {
    ("equivalence_report", "samples"), ("equivalence_report", "grid"), ("scan_monotonicity", "grid"),
}

#: Callables that keep any value they are given, checking none.
PLAIN_RECORDS = {"AuditVerdict", "EquivalenceSummary", "LogPowerSum", "CustomMean", "MeansReport"}

#: Kinds of value that ``float()`` takes but that are no ``numbers.Real``,
#: each made from a number, and the number each is tried with first.
NOT_REAL = {
    "str": (str, 2),
    "bytes": (lambda number: str(number).encode(), 2),
    "Decimal": (lambda number: Decimal(str(number)), 0.5),
    "0-d array": (np.array, 0.5),
}


def public_entries() -> dict[str, object]:
    """Each public callable by name; the file writers once more, by their
    name and their other format, to be swept with a path of that format."""
    entries = {name: getattr(ginikit, name) for name in ginikit.__all__}
    entries.update((name, getattr(mwd, name)) for name in ("report_to_json", "report_to_text"))
    entries.update((name, getattr(plotting, name)) for name in plotting.__all__)
    entries.update({"save_mwd-json": mwd.save_mwd, "save_report-txt": mwd.save_report})
    return entries


def valid_arguments(tmp_path) -> dict[str, dict[str, object]]:
    """A valid argument for each public parameter, by callable and name;
    ``"*"`` holds the ones shared by several callables.  The writers write
    into ``tmp_path / "written"``."""
    sample = PositiveSample([1.0, 2.0, 8.0], [1.0, 0.5, 2.0])
    lower, upper = ExponentPair(1.0, 0.0), ExponentPair(2.0, 1.0)
    dataset = generate_lognormal(1e4, 0.5, 4)
    data_file = tmp_path / "in.csv"
    save_mwd(dataset, data_file)
    written = tmp_path / "written"
    written.mkdir(exist_ok=True)
    return {
        "*": {
            "sample": sample,
            "params": upper,
            "order": ParameterOrder(lower, upper),
            "grid": [lower, upper],
            "samples": [sample],
            "p": 2.0,
            "q": 1.0,
            "r": 3.0,
            "which": "max",
            "moments": True,
            "dataset": dataset,
            "b": 0.5,
            "s": 0.7,
            "custom": [(1.5, 0.5)],
            "report": polydispersity(dataset),
            "precision_digits": 50,
            "values": [1.0, 2.0],
            "weights": [1.0, 3.0],
            "masses": [100.0, 200.0],
            "abundances": [1.0, 2.0],
            "label": "x",
            "lower": lower,
            "upper": upper,
            "m0": 100.0,
            "x": 0.5,
            "tail_tol": 1e-6,
            "mean_degree": 3.0,
            "median_mass": 1e4,
            "sigma": 0.5,
            "n_points": 4,
            "message": "m",
            "line": 3,
            "marks": {"Mn": 1e4, "Mw": 2e4},
        },
        "check_power_mean_bound": {"p": 1.0, "q": 0.0, "r": 2.0},
        "load_mwd": {"path": data_file},
        "save_mwd": {"path": written / "out.csv"},
        "save_mwd-json": {"path": written / "out.json"},
        "save_report": {"path": written / "report.json"},
        "save_report-txt": {"path": written / "report.txt"},
        # plain records, which take any value
        "AuditVerdict": dict(holds=True, margin=1.0, degenerate=False, tolerance=1e-12),
        "EquivalenceSummary": dict(
            cases=1, max_rel_error=0.0, worst_index=0, worst_params=upper, passed=True
        ),
        "LogPowerSum": dict(p=1.0, log_sum=0.0, moment1=0.0, moment2=0.0, moment2_centered=0.0),
        "CustomMean": dict(p=1.0, q=0.0, value=1.0),
        "MeansReport": dict(
            Mn=1.0, Mw=1.0, Mz=1.0, Mv=1.0, pdi=1.0, z_ratio=1.0, schulz_u=0.0, s=0.7
        ),
    }


def public_calls(tmp_path) -> list[tuple[str, object, list[inspect.Parameter], dict]]:
    """Each public callable whose signature names public parameters, with
    those parameters and its valid arguments."""
    valid = valid_arguments(tmp_path)
    calls = []
    for name, entry in public_entries().items():
        if not callable(entry):
            continue
        try:
            signature = inspect.signature(entry)
        except ValueError:  # the error classes, which take any message
            assert issubclass(entry, GinikitError)
            continue
        parameters = [
            parameter
            for parameter in signature.parameters.values()
            if not parameter.name.startswith("_")
        ]
        if not parameters:
            continue
        arguments = {parameter.name: valid["*"].get(parameter.name) for parameter in parameters}
        arguments.update(valid.get(name, {}))
        calls.append((name, entry, parameters, arguments))
    return calls


def number_calls(tmp_path):
    """Each number parameter of each callable that checks its arguments, as
    ``(callable name, entry, parameters, arguments, parameter name)``."""
    return [
        (name, entry, parameters, arguments, parameter.name)
        for name, entry, parameters, arguments in public_calls(tmp_path)
        if name not in PLAIN_RECORDS
        for parameter in parameters
        if parameter.name in NUMBER_PARAMETERS
    ]


def bits(result: object) -> object:
    """``result`` in a form that compares equal only for the same bits."""
    if isinstance(result, float):
        return type(result).__name__, result.hex()
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tobytes()
    if isinstance(result, (list, tuple)):
        return type(result).__name__, [bits(item) for item in result]
    if isinstance(result, MWDataset):
        return bits((result.masses, result.abundances, result.label))
    if dataclasses.is_dataclass(result):
        return type(result).__name__, [
            bits(getattr(result, field.name)) for field in dataclasses.fields(result)
        ]
    return type(result).__name__, result


def outcome(entry, parameters, arguments) -> tuple[str, object]:
    """The bits of a call's result, or the class of the package error it raised."""
    try:
        return "result", bits(call(entry, parameters, arguments))
    except GinikitError as exc:
        return "error", type(exc).__name__


def call(entry, parameters: list[inspect.Parameter], arguments: dict) -> object:
    positional = [
        arguments[parameter.name]
        for parameter in parameters
        if parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    ]
    keywords = {
        parameter.name: arguments[parameter.name]
        for parameter in parameters
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }
    return entry(*positional, **keywords)


class TestArgumentSweep:
    def test_every_hostile_argument_gets_a_result_or_its_package_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        calls = public_calls(tmp_path)
        written = tmp_path / "written"
        start = time.perf_counter()
        leaks = []
        taken = []
        swept = 0
        for name, entry, parameters, arguments in calls:
            # every parameter has a valid argument, and together they give a
            # result, so each hostile value is what a call refuses
            assert None not in arguments.values(), name
            call(entry, parameters, arguments)
            for path in written.iterdir():
                path.unlink()
            for parameter in parameters:
                refusal = TYPED_PARAMETERS.get(parameter.name, GinikitError)
                for value in HOSTILE:
                    swept += 1
                    try:
                        result = call(entry, parameters, {**arguments, parameter.name: value})
                    except refusal:
                        continue
                    except OSError:
                        if not (parameter.name in PATH_PARAMETERS and isinstance(value, str)):
                            leaks.append((name, parameter.name, repr(value), "OSError"))
                        continue
                    except Exception as exc:  # noqa: BLE001 - any other kind is a leak
                        leaks.append((name, parameter.name, repr(value), type(exc).__name__))
                        continue
                    if parameter.name in TYPED_PARAMETERS:
                        # a typed parameter takes a hostile value only as []
                        empty = call(entry, parameters, {**arguments, parameter.name: []})
                        assert bits(result) == bits(empty), (name, parameter.name, repr(value))
                        taken.append((name, parameter.name, repr(value)))
            # the refused calls wrote nothing, nor left a temp file
            assert list(written.iterdir()) == [], name
        elapsed = time.perf_counter() - start
        assert leaks == []
        assert sorted(taken) == sorted(
            (name, parameter, repr(value))
            for name, parameter in TAKE_EMPTY
            for value in ([], np.array([]))
        )
        # HOSTILE's str is a path that a writer takes, in the working directory
        assert sorted(path.name for path in tmp_path.iterdir()) == ["in.csv", "written", "x"]
        # every public callable with arguments, every public parameter
        assert len(calls) == 44
        assert swept == len(HOSTILE) * sum(len(parameters) for _, _, parameters, _ in calls)
        assert elapsed < 2.0


class TestNumberParameters:
    """A number parameter is a ``numbers.Real`` whose double is finite."""

    def test_every_number_parameter_is_swept(self, tmp_path):
        swept = {parameter for *_, parameter in number_calls(tmp_path)}
        assert swept == NUMBER_PARAMETERS

    @pytest.mark.parametrize("kind, number", NOT_REAL.values(), ids=list(NOT_REAL))
    def test_values_that_are_no_real_are_refused(self, tmp_path, monkeypatch, kind, number):
        # the kind made from its own number ("2", say) and from the valid
        # argument of each parameter, which the parameter's range takes
        monkeypatch.chdir(tmp_path)
        accepted = []
        for name, entry, parameters, arguments, parameter in number_calls(tmp_path):
            for value in (kind(number), kind(arguments[parameter])):
                try:
                    call(entry, parameters, {**arguments, parameter: value})
                except ParameterDomainError:
                    continue
                accepted.append((name, parameter, repr(value)))
        assert accepted == []

    @pytest.mark.parametrize(
        "kind",
        [int, np.int64, np.float64, np.float32, Fraction, lambda value: True],
        ids=["int", "np.int64", "np.float64", "np.float32", "Fraction", "True"],
    )
    def test_a_real_of_another_type_acts_as_its_double(self, tmp_path, monkeypatch, kind):
        # the valid argument of each parameter, made the given type (an int
        # type truncates it), against the call with that value's double;
        # where the double is out of range, both are refused alike
        monkeypatch.chdir(tmp_path)
        differ = []
        for name, entry, parameters, arguments, parameter in number_calls(tmp_path):
            base = arguments[parameter]
            value = kind(int(base)) if kind in (int, np.int64) else kind(base)
            got = outcome(entry, parameters, {**arguments, parameter: value})
            want = outcome(entry, parameters, {**arguments, parameter: float(value)})
            if got != want:
                differ.append((name, parameter, repr(value), got[0], want[0]))
        assert differ == []
