"""Per-individual block sums and the individual-level bootstrap for the dbICC.

Everything the dbICC needs from a sample is in its :class:`BlockStats`:
per individual, the sum of squared distances over its within pairs,
and the sums over the pairs between individuals.  For ``l1`` and for a
precomputed matrix the sums are read off the
:class:`~dbicc.core.DistanceMatrix`, with the between sums as the I-by-I
``cross``.  For ``l2`` and correlation of correlations they come
straight from the payloads, with no n-by-n matrix, and the between sums
take the smaller of two forms: the I individual means of p values when
p <= I, the I-by-I ``cross`` when p > I; memory is O(n*p + I*min(I, p))
(see :func:`~dbicc.core.block_stats`).

Each bootstrap replicate resamples individuals with replacement and
re-evaluates the dbICC from the block sums of the resampled
individuals; payload distances are never recomputed.  A replicate
costs O(I*min(I, p)) from sums of payloads: O(I*p) from the means,
O(I^2) from ``cross``, which is also the cost for sums read off a
matrix (see :func:`_replicate_components`).  The point estimate reads
the same sums (:func:`~dbicc.core._between_sum`).

When an individual is drawn twice, the blocks between its copies are
nominally between-individual but really within-individual (with a zero
diagonal), which biases the between-individual mean squared distance
downward.  The corrected estimator drops every block pair whose two
slots resampled the same original individual from both the numerator
and denominator of the between-individual mean.

Confidence intervals are percentile intervals using linearly
interpolated order statistics (the common "type 7" quantile scheme).
Results are a deterministic function of (block sums, n_boot,
corrected, level, seed).
"""

import secrets
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BlockStats, DistanceMatrix, _resampled_sums
from .errors import InsufficientDataError, ParameterError
from .estimator import _checked_msds

__all__ = [
    "BootstrapResult",
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


def _check_level(level):
    """Raise unless the confidence level lies in (0, 1)."""
    if not (0.0 < level < 1.0):
        raise ParameterError(f"level must lie in (0, 1), got {level}")


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
    _check_level(level)
    q = (1.0 - level) / 2.0
    low, high = np.quantile(vals, [q, 1.0 - q])
    return float(low), float(high)


# Bytes of squared rows _block_sums holds at a time (a chunk is at least
# one whole block); chunks that stay in cache sum fastest.
_BLOCK_SUM_BYTES = 1 << 21


def _block_sums(dm: DistanceMatrix) -> BlockStats:
    """Block sums of a distance matrix, exactly.

    Rows are squared and summed in chunks of whole blocks.  Every sum
    adds the same values in the same order as ``reduceat`` over the
    whole squared matrix would, so the bits are the same without an
    n-by-n squared copy.
    """
    sizes = dm.group_sizes
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = bounds[:-1]
    cross = np.empty((sizes.size, sizes.size))
    chunk_rows = _BLOCK_SUM_BYTES // (8 * max(dm.n_total, 1))
    g0 = 0
    while g0 < sizes.size:
        limit = bounds[g0] + chunk_rows
        g1 = max(g0 + 1, int(np.searchsorted(bounds, limit, side="right")) - 1)
        rows = dm.values[bounds[g0] : bounds[g1]]
        with np.errstate(over="ignore"):  # overflows are infinite sums
            row_sums = np.add.reduceat(rows * rows, starts[g0:g1] - bounds[g0])
        cross[g0:g1] = np.add.reduceat(row_sums, starts, axis=1)
        g0 = g1
    within = np.diag(cross) / 2.0
    return BlockStats(sizes, within, cross)


def _replicate_components(sizes, within, cross, means, indices):
    """Vectorized per-replicate MSD components for resampled index rows.

    Takes the fields of a :class:`BlockStats`; ``indices`` has one row per
    bootstrap replicate.  Returns a dict of arrays over replicates:
    within-mean numerator/denominator and the naive and corrected
    between-mean numerators/denominators.  Each numerator derives from
    ``c^T cross c`` for the replicate's counts ``c``
    (:func:`~dbicc.core._resampled_sums`): O(I^2) from ``cross``,
    O(I*p) from the means.
    """
    n_groups = sizes.shape[0]
    n_rep = indices.shape[0]
    flat = (np.arange(n_rep)[:, None] * n_groups + indices).ravel()
    # float counts: every count and count product below is an integer
    # under 2**53, so float matmuls give the integer results exactly
    counts = np.bincount(flat, minlength=n_rep * n_groups).reshape(n_rep, n_groups)
    counts = counts.astype(float)

    pairs_within = sizes * (sizes - 1) // 2
    within_num = counts @ within
    within_den = counts @ pairs_within

    total = counts @ sizes
    diag_cross = 2.0 * within  # np.diag(cross), bit for bit
    quad = _resampled_sums(sizes, within, cross, means, counts, indices[:, 0])
    naive_num = (quad - counts @ diag_cross) / 2.0
    corrected_num = (quad - (counts * counts) @ diag_cross) / 2.0

    sq_sizes = sizes * sizes
    naive_den = (total * total - counts @ sq_sizes) / 2
    corrected_den = (total * total - (counts * counts) @ sq_sizes) / 2

    return {
        "within_num": within_num,
        "within_den": within_den,
        "naive_num": naive_num,
        "naive_den": naive_den,
        "corrected_num": corrected_num,
        "corrected_den": corrected_den,
    }


def _estimates_for_indices(sizes, within, cross, means, indices):
    """Naive and corrected replicate estimates for given resample rows.

    Takes the fields of a :class:`BlockStats`.  Returns (naive,
    corrected, naive_valid, corrected_valid); estimates are NaN where the
    corresponding validity flag is False.
    """
    comp = _replicate_components(sizes, within, cross, means, indices)

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
    """``n_boot`` rows of individual indices drawn with replacement."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_individuals, size=(n_boot, n_individuals))


# Replicate counts below this draw a warning.
_FEW_REPLICATES = 100


def _check_n_boot(n_boot, stacklevel):
    """Raise unless ``n_boot`` is positive; warn if it is below ``_FEW_REPLICATES``.

    ``stacklevel`` counts frames from the caller, as ``warnings.warn`` does.
    """
    if n_boot < 1:
        raise ParameterError(f"n_boot must be positive, got {n_boot}")
    if n_boot < _FEW_REPLICATES:
        warnings.warn(
            f"n_boot={n_boot} is small; percentile intervals are unstable "
            "below a few hundred replicates",
            UserWarning,
            stacklevel=stacklevel + 1,
        )


def _checked_block_sums(source, n_boot, level) -> BlockStats:
    """Validate the arguments, then return the block sums of ``source``."""
    _check_level(level)
    _check_n_boot(n_boot, stacklevel=4)  # the caller of the public function
    stats = source if isinstance(source, BlockStats) else _block_sums(source)
    _checked_msds(stats)  # the point estimate's preconditions
    return stats


def _resolve_seed(seed):
    return secrets.randbits(63) if seed is None else int(seed)


def _replicates(source, n_boot, level, seed):
    """Check the arguments, seed the draw and estimate every replicate.

    Returns the seed and, keyed by ``corrected`` (``False`` or ``True``),
    each method's ``(estimates, valid)`` arrays.
    """
    stats = _checked_block_sums(source, n_boot, level)
    seed = _resolve_seed(seed)
    indices = _draw_indices(stats.sizes.size, n_boot, seed)
    naive, corr, naive_valid, corr_valid = _estimates_for_indices(*stats, indices)
    return seed, {False: (naive, naive_valid), True: (corr, corr_valid)}


def _result(replicates, corrected, level, seed, n_boot):
    estimates, valid = replicates[corrected]
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
    source,
    n_boot: int,
    corrected: bool = True,
    level: float = 0.95,
    seed=None,
) -> BootstrapResult:
    """Bootstrap percentile interval for the dbICC of a grouped sample.

    Parameters
    ----------
    source : DistanceMatrix or BlockStats
        A matrix is reduced to its block sums once per call.
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
    seed, replicates = _replicates(source, n_boot, level, seed)
    return _result(replicates, bool(corrected), level, seed, n_boot)


def bootstrap_dbicc_pair(source, n_boot: int, level: float = 0.95, seed=None):
    """Naive and corrected bootstrap results from one set of resamples.

    Equivalent to calling :func:`bootstrap_dbicc` twice with the same
    seed, at half the cost.  Returns ``(naive, corrected)``.
    """
    seed, replicates = _replicates(source, n_boot, level, seed)
    return (
        _result(replicates, False, level, seed, n_boot),
        _result(replicates, True, level, seed, n_boot),
    )
