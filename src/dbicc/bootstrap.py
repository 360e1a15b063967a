"""Individual-level bootstrap for the dbICC with bias-corrected intervals.

Each bootstrap replicate resamples individuals with replacement and
re-evaluates the dbICC on the corresponding blocks of the original
distance matrix; payload distances are never recomputed, so a replicate
costs O(I^2) regardless of payload size.

When an individual is drawn twice, the blocks between its copies are
nominally between-individual but really within-individual (with a zero
diagonal), which biases the between-individual mean squared distance
downward.  The corrected estimator drops every block pair whose two
slots resampled the same original individual from both the numerator
and denominator of the between-individual mean.

Confidence intervals are percentile intervals using linearly
interpolated order statistics (the common "type 7" quantile scheme).
Results are a deterministic function of (matrix, n_boot, corrected,
level, seed).
"""

import secrets
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DistanceMatrix
from .errors import (
    DegenerateDistancesError,
    InsufficientDataError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    ParameterError,
)
from .estimator import n_within_pairs

__all__ = [
    "BootstrapResult",
    "resample_individuals",
    "percentile_ci",
    "bootstrap_dbicc",
    "bootstrap_dbicc_pair",
]


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate estimates and the percentile interval built from them.

    ``replicate_estimates`` holds the kept replicates, in replicate
    order; ``n_degenerate`` counts replicates whose estimate was
    undefined (for the corrected method: every resampled slot drew the
    same individual) and which were therefore excluded.
    """

    replicate_estimates: np.ndarray
    ci_low: float
    ci_high: float
    level: float
    corrected: bool
    seed: int
    n_boot: int
    n_degenerate: int


def resample_individuals(n_individuals: int, rng) -> np.ndarray:
    """One bootstrap draw: indices sampled with replacement from 0..I-1."""
    if n_individuals < 2:
        raise InsufficientGroupsError(
            f"resampling needs 2+ individuals, got {n_individuals}"
        )
    rng = np.random.default_rng(rng)
    return rng.integers(0, n_individuals, size=n_individuals)


def percentile_ci(replicate_estimates, level: float):
    """Equal-tailed percentile interval of a sample of estimates.

    Quantiles at (1-level)/2 and 1-(1-level)/2 with linear interpolation
    between order statistics.
    """
    vals = np.asarray(replicate_estimates, dtype=float)
    if vals.size < 2:
        raise InsufficientDataError(
            f"need at least 2 estimates for an interval, got {vals.size}"
        )
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    q = (1.0 - level) / 2.0
    low, high = np.quantile(vals, [q, 1.0 - q])
    return float(low), float(high)


# Bytes of squared rows _block_sums holds at a time (a chunk is at least
# one whole block); chunks that stay in cache sum fastest.
_BLOCK_SUM_BYTES = 1 << 21


def _block_sums(dm: DistanceMatrix):
    """Per-individual squared-distance block sums of a distance matrix.

    Returns (sizes, within, cross) where ``within[g]`` sums squared
    distances over the unordered pairs inside block ``g`` and
    ``cross[g, h]`` over all ordered pairs between blocks ``g`` and ``h``
    (so ``cross[g, g]`` is twice ``within[g]``, the duplicated-block sum
    including its zero diagonal).

    Rows are squared and summed in chunks of whole blocks.  Every sum
    adds the same values in the same order as ``reduceat`` over the
    whole squared matrix would, so the bits are the same without an
    n-by-n squared copy.
    """
    sizes = dm.group_sizes
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = bounds[:-1]
    cross = np.empty((sizes.size, sizes.size))
    chunk_rows = _BLOCK_SUM_BYTES // (8 * dm.n_total)
    g0 = 0
    while g0 < sizes.size:
        limit = bounds[g0] + chunk_rows
        g1 = max(g0 + 1, int(np.searchsorted(bounds, limit, side="right")) - 1)
        rows = dm.values[bounds[g0] : bounds[g1]]
        row_sums = np.add.reduceat(rows * rows, starts[g0:g1] - bounds[g0])
        cross[g0:g1] = np.add.reduceat(row_sums, starts, axis=1)
        g0 = g1
    within = np.diag(cross) / 2.0
    return sizes, within, cross


def _replicate_components(sizes, within, cross, indices):
    """Vectorized per-replicate MSD components for resampled index rows.

    ``indices`` has one row per bootstrap replicate.  Returns a dict of
    arrays over replicates: within-mean numerator/denominator and the
    naive and corrected between-mean numerators/denominators.
    """
    n_groups = sizes.shape[0]
    n_rep = indices.shape[0]
    flat = (np.arange(n_rep)[:, None] * n_groups + indices).ravel()
    counts = np.bincount(flat, minlength=n_rep * n_groups).reshape(n_rep, n_groups)
    counts_f = counts.astype(float)

    pairs_within = sizes * (sizes - 1) // 2
    within_num = counts_f @ within
    within_den = counts @ pairs_within

    diag_cross = np.diag(cross)
    quad = ((counts_f @ cross) * counts_f).sum(axis=1)
    naive_num = (quad - counts_f @ diag_cross) / 2.0
    corrected_num = (quad - (counts_f * counts_f) @ diag_cross) / 2.0

    total = counts @ sizes
    sq_sizes = sizes * sizes
    naive_den = (total * total - counts @ sq_sizes) // 2
    corrected_den = (total * total - (counts * counts) @ sq_sizes) // 2

    return {
        "within_num": within_num,
        "within_den": within_den,
        "naive_num": naive_num,
        "naive_den": naive_den,
        "corrected_num": corrected_num,
        "corrected_den": corrected_den,
    }


def _estimates_for_indices(sizes, within, cross, indices):
    """Naive and corrected replicate estimates for given resample rows.

    Takes the block sums of :func:`_block_sums`.  Returns (naive,
    corrected, naive_valid, corrected_valid); estimates are NaN where the
    corresponding validity flag is False.
    """
    comp = _replicate_components(sizes, within, cross, indices)

    with np.errstate(divide="ignore", invalid="ignore"):
        msd_w = comp["within_num"] / comp["within_den"]
        naive_b = comp["naive_num"] / comp["naive_den"]
        corrected_b = comp["corrected_num"] / comp["corrected_den"]
        naive = 1.0 - msd_w / naive_b
        corrected = 1.0 - msd_w / corrected_b

    naive_valid = (comp["within_den"] > 0) & (comp["naive_num"] > 0.0)
    corrected_valid = (
        (comp["within_den"] > 0)
        & (comp["corrected_den"] > 0)
        & (comp["corrected_num"] > 0.0)
    )
    naive[~naive_valid] = np.nan
    corrected[~corrected_valid] = np.nan
    return naive, corrected, naive_valid, corrected_valid


def _draw_indices(n_individuals, n_boot, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_individuals, size=(n_boot, n_individuals))


def _checked_block_sums(dm, n_boot):
    """Validate the arguments, then return the block sums of ``dm``."""
    if n_boot < 1:
        raise ParameterError(f"n_boot must be positive, got {n_boot}")
    if n_boot < 100:
        warnings.warn(
            f"n_boot={n_boot} is small; percentile intervals are unstable "
            "below a few hundred replicates",
            UserWarning,
            stacklevel=3,
        )
    # the point estimate's preconditions, in its order
    if dm.n_individuals < 2:
        raise InsufficientGroupsError(
            f"between-individual spread needs 2+ individuals, got {dm.n_individuals}"
        )
    if n_within_pairs(dm.group_sizes) == 0:
        raise InsufficientReplicatesError(
            "no individual has 2+ replicates; within-individual spread undefined"
        )
    sizes, within, cross = _block_sums(dm)
    if np.count_nonzero(cross) == np.count_nonzero(np.diagonal(cross)):
        raise DegenerateDistancesError(
            "all between-individual distances are zero; dbICC is undefined"
        )
    return sizes, within, cross


def _resolve_seed(seed):
    return secrets.randbits(63) if seed is None else int(seed)


def _result(estimates, valid, corrected, level, seed, n_boot):
    kept = estimates[valid]
    low, high = percentile_ci(kept, level)
    return BootstrapResult(
        replicate_estimates=kept,
        ci_low=low,
        ci_high=high,
        level=level,
        corrected=corrected,
        seed=seed,
        n_boot=n_boot,
        n_degenerate=int(n_boot - kept.size),
    )


def bootstrap_dbicc(
    dm: DistanceMatrix,
    n_boot: int,
    corrected: bool = True,
    level: float = 0.95,
    seed=None,
) -> BootstrapResult:
    """Bootstrap percentile interval for the dbICC of a distance matrix.

    Parameters
    ----------
    dm : DistanceMatrix
    n_boot : int
        Number of bootstrap replicates.  Fewer than 100 triggers a
        warning.
    corrected : bool
        Apply the duplicate-block correction to the between-individual
        mean (recommended).
    level : float
        Confidence level in (0, 1).
    seed : int, optional
        64-bit seed; drawn from the OS entropy pool when omitted and
        recorded in the result either way.
    """
    sums = _checked_block_sums(dm, n_boot)
    seed = _resolve_seed(seed)
    indices = _draw_indices(dm.n_individuals, n_boot, seed)
    naive, corr, naive_valid, corr_valid = _estimates_for_indices(*sums, indices)
    if corrected:
        return _result(corr, corr_valid, True, level, seed, n_boot)
    return _result(naive, naive_valid, False, level, seed, n_boot)


def bootstrap_dbicc_pair(
    dm: DistanceMatrix, n_boot: int, level: float = 0.95, seed=None
):
    """Naive and corrected bootstrap results from one set of resamples.

    Equivalent to calling :func:`bootstrap_dbicc` twice with the same
    seed, at half the cost.  Returns ``(naive, corrected)``.
    """
    sums = _checked_block_sums(dm, n_boot)
    seed = _resolve_seed(seed)
    indices = _draw_indices(dm.n_individuals, n_boot, seed)
    naive, corr, naive_valid, corr_valid = _estimates_for_indices(*sums, indices)
    return (
        _result(naive, naive_valid, False, level, seed, n_boot),
        _result(corr, corr_valid, True, level, seed, n_boot),
    )
