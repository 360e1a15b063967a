"""Distance-based intraclass correlation (dbICC) estimation.

Reliability analysis for repeated measurements of arbitrary data
objects: define a dissimilarity between observations, and the dbICC
``1 - MSD_within / MSD_between`` plays the role the classical ICC plays
for scalars.  The package provides the estimator, bias-corrected
bootstrap confidence intervals, connectivity-oriented distances,
simulation tooling, and reliability-versus-intensity curve fits.
"""

import importlib

from .bootstrap import (
    BootstrapResult,
    bootstrap_dbicc,
    bootstrap_dbicc_pair,
    percentile_ci,
)
from .core import (
    BlockStats,
    DistanceMatrix,
    GroupedSample,
    PayloadKind,
    block_stats,
    build_grouped_sample,
    compute_distance_matrix,
)
from .distances import (
    DistanceSpec,
    Metric,
    corr_of_corr_distance,
    correlation_from_timeseries,
    l1_distance,
    l2_distance,
    soft_threshold,
)
from .errors import (
    DbiccError,
    DegenerateDistancesError,
    DegenerateInputError,
    FactorizationError,
    InputShapeError,
    InsufficientDataError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    MetricMismatchError,
    NonFiniteError,
    ParameterError,
)
from .estimator import (
    DbiccEstimate,
    dbicc_point,
    msd_between,
    msd_within,
    population_dbicc_gaussian,
)

__version__ = "0.1.0"

# Names of the simulation and curve-fit modules, which a command that
# estimates from data never runs: each module is imported on the first
# access to one of its names (PEP 562).
_LAZY = {
    "simulation": (
        "ConnectivityPopulation",
        "TrueScorePopulation",
        "cov_error_spread",
        "default_m_grid",
        "gen_connectivity_sample",
        "gen_gaussian_sample",
        "gen_mvn_timeseries",
        "gen_sample_cov",
        "gen_spd_population",
        "run_coverage_experiment",
        "run_point_experiment",
        "run_sb_experiment",
    ),
    "spearman_brown": (
        "LineFit",
        "SbCurve",
        "SbPoint",
        "build_sb_curve",
        "classical_sb",
        "fit_loglog",
        "snr",
        "snr_inverse",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "BootstrapResult",
    "bootstrap_dbicc",
    "bootstrap_dbicc_pair",
    "percentile_ci",
    "BlockStats",
    "DistanceMatrix",
    "GroupedSample",
    "PayloadKind",
    "block_stats",
    "build_grouped_sample",
    "compute_distance_matrix",
    "DistanceSpec",
    "Metric",
    "corr_of_corr_distance",
    "correlation_from_timeseries",
    "l1_distance",
    "l2_distance",
    "soft_threshold",
    "DbiccError",
    "DegenerateDistancesError",
    "DegenerateInputError",
    "FactorizationError",
    "InputShapeError",
    "InsufficientDataError",
    "InsufficientGroupsError",
    "InsufficientReplicatesError",
    "MetricMismatchError",
    "NonFiniteError",
    "ParameterError",
    "DbiccEstimate",
    "dbicc_point",
    "msd_between",
    "msd_within",
    "population_dbicc_gaussian",
    *_LAZY_MODULE,
]


def __getattr__(name):
    """A name of ``_LAZY``, from its module, imported on first access."""
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULE))
