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

from .core import DistanceMatrix
from .errors import (
    DegenerateDistancesError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    NonFiniteError,
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
    # an overflow shows up as a non-finite mean, which dbicc_point reports
    with np.errstate(over="ignore"):
        return np.multiply(vals, vals, out=vals)


def n_between_pairs(group_sizes) -> int:
    sizes = np.asarray(group_sizes, dtype=np.int64)
    total = int(sizes.sum())
    return (total * total - int((sizes * sizes).sum())) // 2


def n_within_pairs(group_sizes) -> int:
    sizes = np.asarray(group_sizes, dtype=np.int64)
    return int((sizes * (sizes - 1) // 2).sum())


def _between_pair_count(group_sizes) -> int:
    """Between-individual pair count; raises unless there are 2+ individuals."""
    if len(group_sizes) < 2:
        raise InsufficientGroupsError(
            f"between-individual spread needs 2+ individuals, got {len(group_sizes)}"
        )
    return n_between_pairs(group_sizes)


def _within_pair_count(group_sizes) -> int:
    """Within-individual pair count; raises if it is zero."""
    count = n_within_pairs(group_sizes)
    if count == 0:
        raise InsufficientReplicatesError(
            "no individual has 2+ replicates; within-individual spread undefined"
        )
    return count


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
    if isinstance(source, DistanceMatrix):
        sizes = source.group_sizes
        between = msd_between(source)
        within = msd_within(source)
    else:
        sizes = source.sizes
        n_between = _between_pair_count(sizes)
        n_within = _within_pair_count(sizes)
        off_diagonal = ~np.eye(sizes.size, dtype=bool)
        between = float(np.sum(source.cross, where=off_diagonal) / 2.0 / n_between)
        within = float(np.sum(source.within) / n_within)
    if not (np.isfinite(between) and np.isfinite(within)):
        raise NonFiniteError("squared distances overflow float64")
    if between == 0.0:
        raise DegenerateDistancesError(
            "all between-individual distances are zero; dbICC is undefined"
        )
    return DbiccEstimate(
        rho_hat=float(1.0 - within / between),
        msd_within=within,
        msd_between=between,
        n_within_pairs=n_within_pairs(sizes),
        n_between_pairs=n_between_pairs(sizes),
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
