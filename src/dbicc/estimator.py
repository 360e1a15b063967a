"""Point estimation of the distance-based intraclass correlation (dbICC).

The dbICC of a grouped distance matrix is

    rho = 1 - MSD_w / MSD_b,

where MSD_w is the mean squared distance over all unordered
within-individual pairs and MSD_b the mean squared distance over all
unordered between-individual pairs.  Values can be negative (within
spread exceeding between spread) but never exceed 1.

Squared distances are accumulated in fixed row-major order over the
upper triangle, so repeated runs on the same matrix are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .core import DistanceMatrix
from .errors import (
    DegenerateDistancesError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    ParameterError,
)

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
    return np.multiply(vals, vals, out=vals)


def n_between_pairs(group_sizes) -> int:
    sizes = np.asarray(group_sizes, dtype=np.int64)
    total = int(sizes.sum())
    return (total * total - int((sizes * sizes).sum())) // 2


def n_within_pairs(group_sizes) -> int:
    sizes = np.asarray(group_sizes, dtype=np.int64)
    return int((sizes * (sizes - 1) // 2).sum())


def msd_between(dm: DistanceMatrix) -> float:
    """Mean squared distance over unordered between-individual pairs."""
    if dm.n_individuals < 2:
        raise InsufficientGroupsError(
            f"between-individual spread needs 2+ individuals, got {dm.n_individuals}"
        )
    total = np.sum(_squared_upper(dm, between=True))
    return float(total / n_between_pairs(dm.group_sizes))


def msd_within(dm: DistanceMatrix) -> float:
    """Mean squared distance over unordered within-individual pairs.

    Individuals with a single replicate contribute nothing.
    """
    denom = n_within_pairs(dm.group_sizes)
    if denom == 0:
        raise InsufficientReplicatesError(
            "no individual has 2+ replicates; within-individual spread undefined"
        )
    return float(np.sum(_squared_upper(dm, between=False)) / denom)


def dbicc_point(dm: DistanceMatrix) -> DbiccEstimate:
    """dbICC point estimate of a grouped distance matrix.

    Raises
    ------
    DegenerateDistancesError
        If all between-individual distances are zero, leaving the ratio
        undefined.
    """
    between = msd_between(dm)
    within = msd_within(dm)
    if between == 0.0:
        raise DegenerateDistancesError(
            "all between-individual distances are zero; dbICC is undefined"
        )
    return DbiccEstimate(
        rho_hat=float(1.0 - within / between),
        msd_within=within,
        msd_between=between,
        n_within_pairs=n_within_pairs(dm.group_sizes),
        n_between_pairs=n_between_pairs(dm.group_sizes),
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
