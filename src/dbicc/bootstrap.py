"""Per-individual block sums and the individual-level bootstrap for the dbICC.

Everything the dbICC needs from a sample is in its :class:`BlockStats`:
per individual, the sum of squared distances over its within pairs,
and the sums over the pairs between individuals.  For a precomputed
:class:`~dbicc.core.DistanceMatrix` they are read off its rows, with
the between sums as the I-by-I ``cross``.  From payloads,
:func:`~dbicc.core.block_stats` builds no n-by-n matrix under any
metric: ``l1`` reads the same rows in chunks of ``cdist``, and ``l2``
and correlation of correlations take the smaller of two forms for the
between sums, the I individual means of p values when p <= I, the I-by-I
``cross`` when p > I.

Each bootstrap replicate resamples individuals with replacement and
re-evaluates the dbICC from the block sums of the resampled
individuals; payload distances are never recomputed.  A replicate
costs O(I*p) from the means and O(I^2) from ``cross`` (see
:meth:`_ReplicateTerms.components`).  The point estimate reads
the same sums (:func:`~dbicc.core._between_sum`), and every
:class:`BootstrapResult` carries it as ``rho_hat``.

Memory is bounded in the replicate count B.  The (B, I) draw is drawn,
counted and reduced in blocks of rows, each holding about 1 MiB of
indices (``_REPLICATE_BYTES``, or one row when I is larger), so a call
holds the block sums, one block's temporaries (a few times the budget,
plus the rows' products with ``cross`` or the means) and O(B) outputs:
the estimates and validity flags.  The blocks together are the draw of
one ``(B, I)`` call, bit for bit.  Where the draw fits one block, every
replicate is as one whole-draw pass computes it; where it spans several,
the matrix products round per block, so replicates can move in their
last bits.

A block's flat indices and then its float counts are computed in the
one buffer of a :class:`_Workspace`, reused by every block of one call,
and by every run of one coverage experiment (each worker process its
own), which passes one workspace to all its calls.  ``np.bincount``'s
own array takes the squared counts, so a block holds three arrays of
its size at once, the draw, the workspace buffer and bincount's, not
four; each spent block is released before the next is drawn.  The
workspace holds only its buffer, and is freed with the call or the
experiment, never kept for the process.  A fresh temporary of this size
would hand the heap top back to the OS after each call and page it in
again in the next.

When an individual is drawn twice, the blocks between its copies are
nominally between-individual but really within-individual (with a zero
diagonal), which biases the between-individual mean squared distance
downward.  The corrected estimator drops every block pair whose two
slots resampled the same original individual from both the numerator
and denominator of the between-individual mean.

Confidence intervals are percentile intervals using linearly
interpolated order statistics (the common "type 7" quantile scheme).
:func:`percentile_ci` sorts the estimates once and reads both bounds
off the sorted array with numpy's ``linear`` rule, which gives
``np.quantile``'s bits: the virtual index is ``(n - 1) * q`` with
fractional part ``g``, and the bound between order statistics ``a`` and
``b`` is ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` when
``g >= 0.5``.  A sample that holds a NaN gives NaN for both bounds.  The
one difference from ``np.quantile`` is the sign of a zero bound from a
sample that holds both ``0.0`` and ``-0.0``: ``np.sort`` and numpy's
partition can order the two zeros differently.  :func:`_median` reads
the coverage runs' medians off one ``np.partition``, as ``np.median``
does, bit for bit.  Results are a deterministic function of (block
sums, n_boot, corrected, level, seed).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BlockStats, DistanceMatrix, _distance_block_sums, _resampled_sums
from .distances import _chunks
from .errors import InsufficientDataError, ParameterError
from .estimator import dbicc_point

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
    same individual) and which were therefore excluded.  ``rho_hat`` is
    the point estimate of the block sums that the replicates resample;
    for a :class:`~dbicc.core.DistanceMatrix` source it equals
    ``dbicc_point(dm).rho_hat`` up to rounding.
    """

    replicate_estimates: np.ndarray
    rho_hat: float
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


def _check_estimate_count(n):
    """Raise unless ``n`` estimates, at least 2, can give an interval."""
    if n < 2:
        raise InsufficientDataError(f"need at least 2 estimates for an interval, got {n}")


def percentile_ci(replicate_estimates, level: float):
    """Equal-tailed percentile interval of a sample of estimates.

    The bounds are the quantiles at q = (1-level)/2 and 1-q of the
    flattened sample under numpy's ``linear`` (type 7) rule, read off
    one ``np.sort``.  Quantile q sits at virtual index ``(n - 1) * q``
    between order statistics ``a`` and ``b``, with fractional part
    ``g``; it is ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` when
    ``g >= 0.5``.  An index at ``n - 1`` or beyond reads the largest
    value, as ``np.quantile`` does.  Both bounds are NaN when the sample
    holds a NaN.  The bounds are ``np.quantile(vals, [q, 1 - q])`` bit
    for bit, except that a zero bound may differ in sign when the sample
    holds both ``0.0`` and ``-0.0``: ``np.sort`` and numpy's partition
    can order the two zeros differently.
    """
    vals = np.asarray(replicate_estimates, dtype=float)
    _check_estimate_count(vals.size)
    _check_level(level)
    q = (1.0 - level) / 2.0
    ordered = np.sort(vals, axis=None)
    if np.isnan(ordered[-1]):  # NaNs sort last
        return float(ordered[-1]), float(ordered[-1])
    return _type7(ordered, q), _type7(ordered, 1.0 - q)


def _type7(ordered, q):
    """Quantile ``q`` of sorted, NaN-free ``ordered`` by numpy's ``linear`` rule."""
    last = ordered.size - 1
    index = last * q
    if index >= last:
        # numpy reads the last value at both ends and weighs it from index -1
        below = above = last
        g = index + 1.0
    else:
        below = math.floor(index)
        above = below + 1
        g = index - below
    a, b = float(ordered[below]), float(ordered[above])
    diff = b - a
    return b - diff * (1.0 - g) if g >= 0.5 else a + diff * g


def _median(vals):
    """``np.median`` of a non-empty 1-D sample, bit for bit, from one partition.

    The partition places the middle value (odd n) or the middle two (even
    n), and the largest value, which is NaN if the sample holds one.  The
    middle values are summed from 0.0 as numpy's mean sums them, so a
    median of negative zeros is ``0.0``.
    """
    half = vals.size // 2
    middle = [half] if vals.size % 2 else [half - 1, half]
    part = np.partition(vals, middle + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if vals.size % 2:
        return 0.0 + float(part[half])
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2.0


def _block_sums(dm: DistanceMatrix) -> BlockStats:
    """Block sums of a distance matrix, exactly (see :func:`_distance_block_sums`)."""
    return _distance_block_sums(dm.group_sizes, lambda a, b: dm.values[a:b])


class _Workspace:
    """The buffer that replicate blocks are computed in, reused from block to block.

    One workspace serves one bootstrap call, or every call of one coverage
    experiment, and holds only one float64 buffer.  It is allocated anew
    when a block first needs more than it holds, and blocks take
    C-contiguous views of its front.
    """

    def __init__(self):
        self._buffer = np.empty(0)

    def array(self, shape):
        """A float64 ``shape`` view of the buffer, grown first if it is too small."""
        size = math.prod(shape)
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        return self._buffer[:size].reshape(shape)


class _ReplicateTerms:
    """Per-replicate MSD components and estimates from one set of block sums.

    The terms of the block sums alone are computed once, here; the methods
    take a block of resampled index rows, one row per replicate, and
    return arrays over those replicates.  The block's counts are computed
    in ``workspace`` (a fresh :class:`_Workspace` if None); the returned
    arrays are new, and ``indices`` is only read.
    """

    def __init__(self, stats: BlockStats, workspace=None):
        sizes, within = stats.sizes, stats.within
        self.sizes = sizes
        self.within = within
        self.pairs_within = sizes * (sizes - 1) // 2
        self.diag_cross = 2.0 * within  # np.diag(cross), bit for bit
        self.sq_sizes = sizes * sizes
        self.resampled_sums = _resampled_sums(stats)
        self.workspace = _Workspace() if workspace is None else workspace

    def components(self, indices):
        """Numerators and denominators of the within and between means.

        Returns a dict of arrays over the rows of ``indices``: the
        within mean's and the naive and corrected between means'.  Each
        between numerator derives from ``c^T cross c`` for the replicate's
        counts ``c`` (:func:`~dbicc.core._resampled_sums`): O(I^2) from
        ``cross``, O(I*p) from the means.
        """
        n_rep, n_groups = indices.shape
        # one buffer takes the flat indices, then the float counts: every
        # count and count product below is an integer under 2**53, so float
        # matmuls give the integer results exactly
        counts = self.workspace.array(indices.shape)
        flat = counts.view(np.int64)
        np.add(np.arange(n_rep)[:, None] * n_groups, indices, out=flat)
        tally = np.bincount(flat.ravel(), minlength=flat.size)
        np.copyto(counts.reshape(-1), tally)
        # bincount's array takes the squared counts, so a block holds three
        # arrays of its size at once (the draw, the buffer and it), not four
        squares = np.multiply(counts, counts, out=tally.view(float).reshape(indices.shape))
        total = counts @ self.sizes
        quad = self.resampled_sums(counts, total, indices[:, 0])
        return {
            "within_num": counts @ self.within,
            "within_den": counts @ self.pairs_within,
            "naive_num": (quad - counts @ self.diag_cross) / 2.0,
            "naive_den": (total * total - counts @ self.sq_sizes) / 2,
            "corrected_num": (quad - squares @ self.diag_cross) / 2.0,
            "corrected_den": (total * total - squares @ self.sq_sizes) / 2,
        }

    def estimates(self, indices):
        """Naive and corrected replicate estimates for the rows of ``indices``.

        Returns (naive, corrected, naive_valid, corrected_valid);
        estimates are NaN where the corresponding validity flag is False.
        """
        comp = self.components(indices)

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


# Bytes of the indices in one block of the (n_boot, I) draw.  Replicates
# are drawn, counted and reduced one block at a time, each block's
# temporaries a few times this size, so memory does not grow with n_boot.
_REPLICATE_BYTES = 1 << 20


def _draw_indices(n_individuals, n_boot, seed):
    """Blocks of rows of individual indices drawn with replacement.

    Yields ``n_boot`` rows in all, as many per block as fill
    ``_REPLICATE_BYTES`` with 8-byte indices (at least one); the last
    block may be shorter.  One generator draws every block in turn, so
    the blocks are the rows of one ``(n_boot, n_individuals)`` draw, bit
    for bit.
    """
    rng = np.random.default_rng(seed)
    for c in _chunks(n_boot, 8 * n_individuals, _REPLICATE_BYTES):
        yield rng.integers(0, n_individuals, size=(c.stop - c.start, n_individuals))


# Replicate counts below this draw a warning.
_FEW_REPLICATES = 100


def _check_n_boot(n_boot, stacklevel):
    """Raise unless ``n_boot`` replicates can give an interval; warn if few.

    ``n_boot`` below 1 is a :class:`ParameterError`, 1 the
    :class:`InsufficientDataError` of :func:`percentile_ci`, both before
    the warning of an ``n_boot`` below ``_FEW_REPLICATES``.
    ``stacklevel`` counts frames from the caller, as ``warnings.warn`` does.
    """
    if n_boot < 1:
        raise ParameterError(f"n_boot must be positive, got {n_boot}")
    _check_estimate_count(n_boot)
    if n_boot < _FEW_REPLICATES:
        warnings.warn(
            f"n_boot={n_boot} is small; percentile intervals are unstable "
            "below a few hundred replicates",
            UserWarning,
            stacklevel=stacklevel + 1,
        )


def _resolve_seed(seed):
    """``seed`` as an int, or 63 bits from the OS entropy pool if it is None.

    ``secrets`` is imported only for a None seed.  ``numpy.random``
    imports it, and with it OpenSSL's ``_hashlib``, when it is itself
    first loaded, which every draw does; so this saves the import only
    where nothing is drawn.
    """
    if seed is not None:
        return int(seed)
    import secrets

    return secrets.randbits(63)


def _replicates(source, n_boot, level, seed, workspace=None):
    """Check the arguments, seed the draw and estimate every replicate.

    ``source`` is reduced to its block sums, whose point estimate ρ̂
    checks its own preconditions, which are the bootstrap's too.
    Replicates are estimated one block of the draw at a time
    (:func:`_draw_indices`), every block in ``workspace`` (a fresh
    :class:`_Workspace` if None); only the ``n_boot``-long estimates and
    validity flags outlive a block.  Returns the seed, ρ̂ and, keyed by
    ``corrected`` (``False`` or ``True``), each method's
    ``(estimates, valid)`` arrays.
    """
    _check_level(level)
    _check_n_boot(n_boot, stacklevel=3)  # the caller of the public function
    stats = source if isinstance(source, BlockStats) else _block_sums(source)
    rho_hat = dbicc_point(stats).rho_hat
    seed = _resolve_seed(seed)
    terms = _ReplicateTerms(stats, workspace)
    blocks = []
    for indices in _draw_indices(stats.sizes.size, n_boot, seed):
        blocks.append(terms.estimates(indices))
        del indices  # the spent block is freed before the next is drawn
    naive, corr, naive_valid, corr_valid = map(np.concatenate, zip(*blocks))
    return seed, rho_hat, {False: (naive, naive_valid), True: (corr, corr_valid)}


def _result(rho_hat, replicates, corrected, level, seed, n_boot):
    estimates, valid = replicates[corrected]
    kept = estimates[valid]
    low, high = percentile_ci(kept, level)
    return BootstrapResult(
        replicate_estimates=kept,
        rho_hat=rho_hat,
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
    seed, rho_hat, replicates = _replicates(source, n_boot, level, seed)
    return _result(rho_hat, replicates, bool(corrected), level, seed, n_boot)


def bootstrap_dbicc_pair(
    source, n_boot: int, level: float = 0.95, seed=None, *, _workspace=None
):
    """Naive and corrected bootstrap results from one set of resamples.

    Equivalent to calling :func:`bootstrap_dbicc` twice with the same
    seed, at half the cost.  Returns ``(naive, corrected)``, which carry
    the same ``rho_hat``.  The private ``_workspace`` lets a caller that
    bootstraps many samples in turn (the coverage experiment) reuse one
    :class:`_Workspace`'s buffers across its calls.
    """
    seed, rho_hat, replicates = _replicates(source, n_boot, level, seed, _workspace)
    return (
        _result(rho_hat, replicates, False, level, seed, n_boot),
        _result(rho_hat, replicates, True, level, seed, n_boot),
    )
