"""Distance-based intraclass correlation (dbICC) estimation.

Reliability analysis for repeated measurements of arbitrary data
objects: define a dissimilarity between observations, and the dbICC
``1 - MSD_within / MSD_between`` plays the role the classical ICC plays
for scalars.  The package provides the estimator, bias-corrected
bootstrap confidence intervals, connectivity-oriented distances,
simulation tooling, and reliability-versus-intensity curve fits.
"""

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
    connectivity_score,
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
    SingularMatrixError,
)
from .estimator import (
    DbiccEstimate,
    dbicc_point,
    msd_between,
    msd_within,
    population_dbicc_gaussian,
)
from .simulation import (
    ConnectivityPopulation,
    TrueScorePopulation,
    cov_error_spread,
    default_m_grid,
    gen_connectivity_sample,
    gen_gaussian_sample,
    gen_mvn_timeseries,
    gen_sample_cov,
    gen_spd_population,
    run_coverage_experiment,
    run_point_experiment,
    run_sb_experiment,
)
from .spearman_brown import (
    LineFit,
    SbCurve,
    SbPoint,
    build_sb_curve,
    classical_sb,
    fit_loglog,
    snr,
    snr_inverse,
)

__version__ = "0.1.0"
