"""ginikit: numerically stable Gini, Lehmer and power means.

The package evaluates two-parameter Gini means (which subsume power means,
Lehmer means and the classical polymer molecular-weight averages) entirely
in the log domain, audits the comparison inequalities between them
mechanically, and cross-checks results against an independent
extended-precision reference.
"""

from __future__ import annotations

from ._backend import backend_name
from .audit import (
    AuditVerdict,
    ParameterOrder,
    check_monotonicity,
    check_power_mean_bound,
    convexity_gap,
    scan_monotonicity,
)
from .errors import (
    DataError,
    GinikitError,
    HypothesisError,
    IngestionError,
    OracleDomainError,
    ParameterDomainError,
)
from .means import (
    LogPowerSum,
    extreme_value,
    gini_mean,
    identical_parameter_gini,
    lehmer_mean,
    log_power_sum,
    power_mean,
    secant_slope,
)
from .mwd import (
    CustomMean,
    MeansReport,
    MWDataset,
    effective_parameter_mean,
    generate_flory,
    generate_lognormal,
    generate_poisson,
    hydrodynamic_mean,
    load_mwd,
    number_average,
    polydispersity,
    save_mwd,
    save_report,
    sedimentation_mean,
    viscosity_average,
    weight_average,
    z_average,
)
from .sample import ExponentPair, PositiveSample

__version__ = "0.1.0"

#: Names read from :mod:`ginikit.oracle` when they are asked for, so that
#: importing the package does not import mpmath.
_ORACLE_NAMES = ("EquivalenceSummary", "equivalence_report", "oracle_gini")


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AuditVerdict",
    "CustomMean",
    "DataError",
    "EquivalenceSummary",
    "ExponentPair",
    "GinikitError",
    "HypothesisError",
    "IngestionError",
    "LogPowerSum",
    "MWDataset",
    "MeansReport",
    "OracleDomainError",
    "ParameterDomainError",
    "ParameterOrder",
    "PositiveSample",
    "backend_name",
    "check_monotonicity",
    "check_power_mean_bound",
    "convexity_gap",
    "effective_parameter_mean",
    "equivalence_report",
    "extreme_value",
    "generate_flory",
    "generate_lognormal",
    "generate_poisson",
    "gini_mean",
    "hydrodynamic_mean",
    "identical_parameter_gini",
    "lehmer_mean",
    "load_mwd",
    "log_power_sum",
    "number_average",
    "oracle_gini",
    "polydispersity",
    "power_mean",
    "save_mwd",
    "save_report",
    "scan_monotonicity",
    "secant_slope",
    "sedimentation_mean",
    "viscosity_average",
    "weight_average",
    "z_average",
    "__version__",
]
