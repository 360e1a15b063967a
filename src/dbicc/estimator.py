"""Point estimation of the distance-based intraclass correlation (dbICC).

The dbICC of a grouped distance matrix is

    rho = 1 - MSD_w / MSD_b,

where MSD_w is the mean squared distance over all unordered
within-individual pairs and MSD_b the mean squared distance over all
unordered between-individual pairs.  Values can be negative (within
spread exceeding between spread) but never exceed 1.

:func:`dbicc_point` takes a distance matrix, whose squared distances it
accumulates in fixed row-major order over the upper triangle (so
repeated runs on the same matrix are bit-identical), or the block sums
of :class:`dbicc.core.BlockStats`, which give the same estimate up
to rounding without an n-by-n matrix.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DistanceMatrix,
    _between_pair_count,
    _between_sum,
    _require_finite,
    _within_pair_count,
)
from .errors import DegenerateDistancesError, ParameterError

__all__ = [
    "DbiccEstimate",
    "msd_between",
    "msd_within",
    "dbicc_point",
    "population_dbicc_gaussian",
]


@dataclass(frozen=True)
class DbiccEstimate:
    """A dbICC point estimate together with its components.

    ``rho_hat = 1 - msd_within / msd_between`` and the pair counts are the
    denominators of the two mean squared distances.
    """

    rho_hat: float
    msd_within: float
    msd_between: float
    n_within_pairs: int
    n_between_pairs: int


def _squared_upper(dm: DistanceMatrix, between: bool) -> np.ndarray:
    """Squared upper-triangle distances of one pair kind, in row-major order.

    Blocks are contiguous, so row ``a``'s between pairs are the columns
    from the end of its block on, and its within pairs the columns after
    ``a`` inside its block.
    """
    sizes = dm.group_sizes
    ends = np.repeat(np.cumsum(sizes), sizes)[:, None]
    cols = np.arange(dm.n_total)
    if between:
        mask = cols >= ends
    else:
        mask = (cols > cols[:, None]) & (cols < ends)
    vals = dm.values[mask]
    # an overflow shows up as a non-finite mean, which _checked_msds reports
    with np.errstate(over="ignore"):
        return np.multiply(vals, vals, out=vals)


def msd_between(dm: DistanceMatrix) -> float:
    """Mean squared distance over unordered between-individual pairs."""
    count = _between_pair_count(dm.group_sizes)
    return float(np.sum(_squared_upper(dm, between=True)) / count)


def msd_within(dm: DistanceMatrix) -> float:
    """Mean squared distance over unordered within-individual pairs.

    Individuals with a single replicate contribute nothing.
    """
    count = _within_pair_count(dm.group_sizes)
    return float(np.sum(_squared_upper(dm, between=False)) / count)


def _checked_msds(source):
    """``(between, within, n_between, n_within)`` of a matrix or its block sums.

    The two mean squared distances and their pair counts, after every
    check that the dbICC is defined, in this order: 2+ individuals, one
    with 2+ replicates, finite means, a nonzero between mean.  The point
    estimate and the bootstrap both check through here.
    """
    matrix = isinstance(source, DistanceMatrix)
    sizes = source.group_sizes if matrix else source.sizes
    n_between = _between_pair_count(sizes)
    n_within = _within_pair_count(sizes)
    if matrix:
        between_sum = np.sum(_squared_upper(source, between=True))
        within_sum = np.sum(_squared_upper(source, between=False))
    else:
        between_sum = _between_sum(source)
        within_sum = np.sum(source.within)
    between = float(between_sum / n_between)
    within = float(within_sum / n_within)
    _require_finite(between, within)
    if between == 0.0:
        raise DegenerateDistancesError(
            "all between-individual distances are zero; dbICC is undefined"
        )
    return between, within, n_between, n_within


def dbicc_point(source) -> DbiccEstimate:
    """dbICC point estimate of a grouped distance matrix or its block sums.

    Parameters
    ----------
    source : DistanceMatrix or BlockStats
        A matrix gives the exact reference estimate.  Block sums (of a
        matrix, or straight from ``l2``/``corr`` payloads) give the same
        estimate up to rounding.

    Raises
    ------
    NonFiniteError
        If the squared distances overflow.
    DegenerateDistancesError
        If all between-individual distances are zero, leaving the ratio
        undefined.
    """
    between, within, n_between, n_within = _checked_msds(source)
    return DbiccEstimate(
        rho_hat=float(1.0 - within / between),
        msd_within=within,
        msd_between=between,
        n_within_pairs=n_within,
        n_between_pairs=n_between,
    )


def population_dbicc_gaussian(trace_sigma_score, trace_sigma_noise) -> float:
    """Population dbICC for vector data under Euclidean distance.

    For observations = score + noise with independent Gaussian score and
    noise vectors, the dbICC equals
    ``tr(score cov) / (tr(score cov) + tr(noise cov))``.  Used as the
    ground truth in simulation experiments.
    """
    ts = float(trace_sigma_score)
    te = float(trace_sigma_noise)
    if ts < 0.0 or te < 0.0:
        raise ParameterError("covariance traces must be nonnegative")
    if ts + te == 0.0:
        raise ParameterError("at least one trace must be positive")
    return ts / (ts + te)
