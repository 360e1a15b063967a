"""Distance functions and correlation-matrix utilities.

Three dissimilarities are supported for repeated-measures payloads:

* entrywise L2 (Euclidean on vectors, Frobenius on matrices),
* entrywise L1,
* correlation-of-correlations, ``sqrt(1 - r)`` with ``r`` the Pearson
  correlation between the strictly-lower-triangular parts of two
  correlation matrices.

The module also provides the helpers needed to turn multivariate time
series into connectivity matrices: Pearson correlation across columns,
and soft-thresholding of off-diagonal correlations (one matrix or a
whole stack at a time).

All functions are pure and safe for concurrent use.  The scalar distance
functions evaluate the same compiled kernels as the pairwise path in
:func:`dbicc.core.compute_distance_matrix`, so a single pair and the
corresponding matrix entry agree bit for bit.

Those kernels are scipy's ``cdist``, ``pdist`` and ``squareform``,
reached through the functions of the same names here, which import
:mod:`scipy.spatial.distance` on their first call (:func:`load_kernels`).
Importing it loads over 170 scipy modules, so a command whose path calls
no scipy kernel never pays for them.  The ``l2`` and
correlation-of-correlations block sums call none of them.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateInputError,
    InputShapeError,
    InsufficientDataError,
    ParameterError,
)

__all__ = [
    "Metric",
    "DistanceSpec",
    # no runner calls the pair functions: README documents them as the
    # pair definitions, and tests check the matrix path against them
    "l2_distance",
    "l1_distance",
    "corr_of_corr_distance",
    "correlation_from_timeseries",
    "soft_threshold",
]


def load_kernels():
    """Import :mod:`scipy.spatial.distance`, once per process, and return it.

    :func:`cdist`, :func:`pdist` and :func:`squareform` call it on each
    call; the first call pays the import.
    """
    import scipy.spatial.distance

    return scipy.spatial.distance


def cdist(a, b, metric):
    """scipy's ``cdist``, imported on first use."""
    return load_kernels().cdist(a, b, metric)


def pdist(rows, metric):
    """scipy's ``pdist``, imported on first use."""
    return load_kernels().pdist(rows, metric)


def squareform(condensed):
    """scipy's ``squareform``, imported on first use."""
    return load_kernels().squareform(condensed)


# Bytes of rows a scratch loop holds in a temporary at a time, unless it
# passes its own budget; chunks that stay in cache are fastest.
_CHUNK_BYTES = 1 << 16


def _chunk_rows(row_bytes, budget=None):
    """Rows per chunk: as many ``row_bytes`` rows as fit ``budget``, or one row.

    ``budget`` is ``_CHUNK_BYTES`` when None.
    """
    budget = _CHUNK_BYTES if budget is None else budget
    return max(1, budget // max(row_bytes, 1))


def _chunks(n_rows, row_bytes, budget=None):
    """Slices of ``range(n_rows)`` in order, :func:`_chunk_rows` rows each but the last."""
    step = _chunk_rows(row_bytes, budget)
    return (slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step))


class _Workspace:
    """One float64 buffer, reused by every array its owner computes in it.

    One workspace serves the replicate blocks of one bootstrap call, or
    of every call of one coverage experiment, or the levels of one column
    pipeline (:class:`dbicc.core._MatrixColumns`).  The buffer is
    allocated anew when an array first needs more than it holds; arrays
    are C-contiguous views of its front, which the next one overwrites.
    """

    def __init__(self):
        self._buffer = np.empty(0)

    def array(self, shape):
        """A float64 ``shape`` view of the buffer, grown first if it is too small."""
        size = math.prod(shape)
        if self._buffer.size < size:
            self._buffer = np.empty(size)
        return self._buffer[:size].reshape(shape)


class Metric(str, Enum):
    """Supported dissimilarity kinds."""

    L2_VEC = "l2_vec"
    L1_VEC = "l1_vec"
    CORR_OF_CORR = "corr_of_corr"


@dataclass(frozen=True)
class DistanceSpec:
    """A metric choice plus an optional soft-threshold level.

    Parameters
    ----------
    kind : Metric or str
        Which dissimilarity to use.
    threshold : float, optional
        Soft-threshold level applied to matrix payloads before the
        distance is taken.  Must lie in [0, 1] (correlations live in
        [-1, 1]); ``None`` disables thresholding.
    """

    kind: Metric
    threshold: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", Metric(self.kind))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _threshold_level(self.threshold))


def _threshold_level(level) -> float:
    """``level`` as a float; raises unless it lies in [0, 1]."""
    t = float(level)
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"soft-threshold level must lie in [0, 1], got {level}")
    return t


def _pair_array(a, b, name):
    """``a`` and ``b`` stacked as one float array; raises unless equal shapes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputShapeError(
            f"{name} requires equal shapes, got {a.shape} and {b.shape}"
        )
    return np.stack([a, b])


def l2_distance(a, b) -> float:
    """Euclidean distance between two arrays, entrywise.

    Matrix arguments are flattened first, so for matrices this is the
    Frobenius distance.
    """
    pair = _pair_array(a, b, "l2_distance").reshape(2, -1)
    # same kernel as the pairwise path, so entries match bit for bit
    return float(pdist(pair, "euclidean")[0])


def l1_distance(a, b) -> float:
    """Sum of absolute entrywise differences between two arrays."""
    pair = _pair_array(a, b, "l1_distance").reshape(2, -1)
    return float(pdist(pair, "cityblock")[0])


def _metric_rows(mats, metric: Metric) -> np.ndarray:
    """The rows ``metric`` compares, one per payload of the stack ``mats``.

    Rows are the flattened payloads for ``l2``/``l1``, a view of
    ``mats``.  For correlation of correlations they are a new array of
    the strict lower triangles, standardized by :func:`_standardized`.
    """
    flat = mats.reshape(len(mats), -1)
    if metric is not Metric.CORR_OF_CORR:
        return flat
    p = mats.shape[1]
    i, j = np.tril_indices(p, k=-1)
    # take keeps the rows C-contiguous, so row reductions sum as before
    return _standardized(np.take(flat, i * p + j, axis=1))


def _standardized(rows) -> np.ndarray:
    """Strict lower triangles, one per row, centred at 0 and scaled to norm 1.

    Works in place on ``rows`` and returns it.  Correlation of
    correlations needs matrices of 3x3 or larger, so triangles of 3 or
    more entries, and a non-constant triangle: for such rows ``z``, one
    minus the Pearson correlation of two rows is ``||z_a - z_b||^2 / 2``.
    A triangle whose largest magnitude lies outside ``[1e-100, 1e100]``
    is divided by it first, so that its sum and squares neither overflow
    nor underflow; the correlation does not depend on scale.
    """
    if rows.shape[1] < 3:
        raise DegenerateInputError(
            "correlation-of-correlations needs matrices of size 3x3 or larger"
        )
    high, low = rows.max(axis=1), rows.min(axis=1)
    flat_ptp = high - low
    if np.any(flat_ptp == 0.0):
        bad = int(np.flatnonzero(flat_ptp == 0.0)[0])
        raise DegenerateInputError(
            f"payload {bad} has a constant lower triangle; "
            "correlation of correlations is undefined"
        )
    peak = np.maximum(high, -low)
    rescale = (peak > 1e100) | (peak < 1e-100)
    if rescale.any():
        rows[rescale] /= peak[rescale, None]
    rows -= rows.mean(axis=1, keepdims=True)
    rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    return rows


def corr_of_corr_distance(r1, r2) -> float:
    """Correlation-of-correlations distance between two correlation matrices.

    Computes ``sqrt(1 - r)`` where ``r`` is the Pearson correlation between
    the strictly-lower-triangular entries of ``r1`` and those of ``r2``.
    The unit diagonal is excluded (it is constant and would make the
    Pearson correlation degenerate).  The distance is taken as
    ``sqrt(1/2) * ||z1 - z2||`` on the standardized triangles ``z``, which
    keeps its digits near ``r = 1`` where ``1 - r`` would cancel.
    """
    pair = _pair_array(r1, r2, "corr_of_corr_distance")
    if pair.ndim != 3 or pair.shape[1] != pair.shape[2]:
        raise InputShapeError(
            f"corr_of_corr_distance needs square matrices, got shape {pair.shape[1:]}"
        )
    # the pairwise path's rows and kernel, so entries match bit for bit
    z = _metric_rows(pair, Metric.CORR_OF_CORR)
    return float(pdist(z, "euclidean")[0] * np.sqrt(0.5))


def correlation_from_timeseries(x) -> np.ndarray:
    """Pearson correlation matrix of the columns of a time-series array.

    Parameters
    ----------
    x : array, shape (n_timepoints, n_channels)
        One multivariate series; rows are time points.

    Returns
    -------
    ndarray, shape (n_channels, n_channels)
        Symmetric bit for bit (the strict lower triangle is mirrored into
        the upper one), unit diagonal, entries clipped to [-1, 1].
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputShapeError(
            f"time series must be 2-D (time x channels), got shape {x.shape}"
        )
    if x.shape[0] < 3:
        raise InsufficientDataError(
            f"need at least 3 time points to correlate, got {x.shape[0]}"
        )
    # exact: a constant column's std is often a rounding residue, not 0
    flat = x.max(axis=0) == x.min(axis=0)
    if flat.any():
        bad = int(np.flatnonzero(flat)[0])
        raise DegenerateInputError(f"column {bad} is constant; correlation undefined")
    r = np.atleast_2d(np.corrcoef(x, rowvar=False))
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    # corrcoef's two halves differ in their last bits; the upper one reads the lower
    p = r.shape[0]
    np.copyto(r, r.T, where=np.tri(p, k=-1, dtype=bool).T)
    return r


def _shrink(v, level, out):
    """Write ``sign(v) * max(|v| - level, 0)`` to ``out``, which must not overlap ``v``.

    The one soft-threshold formula, of :func:`soft_threshold` and of the
    column pipeline (:class:`dbicc.core._MatrixColumns`).
    """
    np.abs(v, out=out)
    np.subtract(out, level, out=out)
    np.maximum(out, 0.0, out=out)
    np.multiply(np.sign(v), out, out=out)


def soft_threshold(r, level):
    """Shrink off-diagonal entries of correlation matrices toward zero.

    ``r`` is one square matrix or a stack of them, shape ``(n, p, p)``.
    Each off-diagonal entry ``v`` becomes ``sign(v) * max(|v| - level, 0)``;
    the diagonal is left untouched.  A stack needs no temporary larger
    than one matrix besides the result.

    Returns
    -------
    (ndarray, float or ndarray)
        The thresholded matrix or stack and, per matrix, the fraction of
        off-diagonal entries that are exactly zero afterwards
        (pre-existing zeros included): a float for one matrix, an array
        of ``n`` for a stack.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim not in (2, 3) or r.shape[-1] != r.shape[-2]:
        raise InputShapeError(
            f"expected a square matrix or a stack of them, got shape {r.shape}"
        )
    p = r.shape[-1]
    if p < 2:
        raise DegenerateInputError("a 1x1 matrix has no off-diagonal entries")
    level = _threshold_level(level)
    out = np.empty_like(r)
    src, dst = r.reshape(-1, p, p), out.reshape(-1, p, p)
    zeros = np.empty(len(src), dtype=np.int64)
    # one matrix at a time, so it stays in cache through every pass
    for k, (v, m) in enumerate(zip(src, dst)):
        _shrink(v, level, out=m)
        np.fill_diagonal(m, np.diagonal(v))
        diagonal_zeros = np.count_nonzero(np.diagonal(m) == 0.0)
        zeros[k] = np.count_nonzero(m == 0.0) - diagonal_zeros
    fractions = zeros / (p * (p - 1))
    return out, fractions if r.ndim == 3 else float(fractions[0])

