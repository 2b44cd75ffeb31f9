"""One sweep of the argument boundary of the whole public API.

Every callable of ``ginikit.__all__`` that takes arguments gets each
``HOSTILE`` value in each of its public parameters, in turn, with a valid
argument in every other place.  Each call must return or raise a
:class:`ginikit.GinikitError`, the rule :mod:`ginikit.errors` states.  The
one exception is a ``str`` path of a file that does not exist, which stays an
``OSError``, as a missing file does everywhere.
"""

from __future__ import annotations

import inspect
import time

import ginikit
from ginikit import (
    ExponentPair,
    GinikitError,
    ParameterOrder,
    PositiveSample,
    generate_lognormal,
    polydispersity,
    save_mwd,
)

from helpers import HOSTILE

#: Where the sweep may take an ``OSError``: a path parameter given a ``str``.
PATH_PARAMETERS = {"path"}


def valid_arguments(tmp_path) -> dict[str, dict[str, object]]:
    """A valid argument for each public parameter, by callable and name;
    ``"*"`` holds the ones shared by several callables."""
    sample = PositiveSample([1.0, 2.0, 8.0], [1.0, 0.5, 2.0])
    lower, upper = ExponentPair(1.0, 0.0), ExponentPair(2.0, 1.0)
    dataset = generate_lognormal(1e4, 0.5, 4)
    data_file = tmp_path / "in.csv"
    save_mwd(dataset, data_file)
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
        },
        "check_power_mean_bound": {"p": 1.0, "q": 0.0, "r": 2.0},
        "load_mwd": {"path": data_file},
        "save_mwd": {"path": tmp_path / "out.csv"},
        "save_report": {"path": tmp_path / "report.json"},
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
    """Each callable of ``ginikit.__all__`` whose signature names public
    parameters, with those parameters and its valid arguments."""
    valid = valid_arguments(tmp_path)
    calls = []
    for name in ginikit.__all__:
        entry = getattr(ginikit, name)
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
    def test_every_hostile_argument_gets_a_result_or_a_package_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        calls = public_calls(tmp_path)
        start = time.perf_counter()
        leaks = []
        swept = 0
        for name, entry, parameters, arguments in calls:
            # every parameter has a valid argument, and together they give a
            # result, so each hostile value is what a call refuses
            assert None not in arguments.values(), name
            call(entry, parameters, arguments)
            for parameter in parameters:
                for value in HOSTILE:
                    swept += 1
                    try:
                        call(entry, parameters, {**arguments, parameter.name: value})
                    except GinikitError:
                        pass
                    except OSError:
                        if not (parameter.name in PATH_PARAMETERS and isinstance(value, str)):
                            leaks.append((name, parameter.name, repr(value), "OSError"))
                    except Exception as exc:  # noqa: BLE001 - any other kind is a leak
                        leaks.append((name, parameter.name, repr(value), type(exc).__name__))
        elapsed = time.perf_counter() - start
        assert leaks == []
        # every public callable with arguments, every public parameter
        assert len(calls) == 37
        assert swept == len(HOSTILE) * sum(len(parameters) for _, _, parameters, _ in calls)
        assert elapsed < 2.0
