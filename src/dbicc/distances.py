"""Distance functions and correlation-matrix utilities.

Three dissimilarities are supported for repeated-measures payloads:

* entrywise L2 (Euclidean on vectors, Frobenius on matrices),
* entrywise L1,
* correlation-of-correlations, ``sqrt(1 - r)`` with ``r`` the Pearson
  correlation between the strictly-lower-triangular parts of two
  correlation matrices.

The module also provides the helpers needed to turn multivariate time
series into connectivity matrices: Pearson correlation across columns,
soft-thresholding of off-diagonal correlations (one matrix or a whole
stack at a time), and a log-determinant connectivity score.

All functions are pure, apart from writing a given ``out`` array, and
safe for concurrent use.  The scalar distance
functions evaluate the same compiled kernels as the pairwise path in
:func:`dbicc.core.compute_distance_matrix`, so a single pair and the
corresponding matrix entry agree bit for bit.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial.distance import pdist

from .errors import (
    DegenerateInputError,
    InputShapeError,
    InsufficientDataError,
    ParameterError,
    SingularMatrixError,
)

__all__ = [
    "Metric",
    "DistanceSpec",
    "l2_distance",
    "l1_distance",
    "corr_of_corr_distance",
    "correlation_from_timeseries",
    "soft_threshold",
    "connectivity_score",
]


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
            t = float(self.threshold)
            if not (0.0 <= t <= 1.0):
                raise ParameterError(
                    f"soft-threshold level must lie in [0, 1], got {self.threshold}"
                )
            object.__setattr__(self, "threshold", t)


def _pair_array(a, b, name):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputShapeError(
            f"{name} requires equal shapes, got {a.shape} and {b.shape}"
        )
    return a.ravel(), b.ravel()


def l2_distance(a, b) -> float:
    """Euclidean distance between two arrays, entrywise.

    Matrix arguments are flattened first, so for matrices this is the
    Frobenius distance.
    """
    a, b = _pair_array(a, b, "l2_distance")
    # same kernel as the pairwise path, so entries match bit for bit
    return float(pdist(np.vstack([a, b]), "euclidean")[0])


def l1_distance(a, b) -> float:
    """Sum of absolute entrywise differences between two arrays."""
    a, b = _pair_array(a, b, "l1_distance")
    return float(pdist(np.vstack([a, b]), "cityblock")[0])


def _strict_lower(mat, name):
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputShapeError(f"{name} must be a square matrix, got shape {m.shape}")
    p = m.shape[0]
    if p < 3:
        raise DegenerateInputError(
            f"{name} needs at least a 3x3 matrix (a 2x2 matrix has a single "
            f"off-diagonal value, so the correlation of correlations is undefined)"
        )
    rows, cols = np.tril_indices(p, k=-1)
    v = m[rows, cols]
    if np.ptp(v) == 0.0:
        raise DegenerateInputError(
            f"{name} has a constant lower triangle; its correlation is undefined"
        )
    return v


def corr_of_corr_distance(r1, r2) -> float:
    """Correlation-of-correlations distance between two correlation matrices.

    Computes ``sqrt(1 - r)`` where ``r`` is the Pearson correlation between
    the strictly-lower-triangular entries of ``r1`` and those of ``r2``.
    The unit diagonal is excluded (it is constant and would make the
    Pearson correlation degenerate).  ``1 - r`` is clamped at zero before
    the square root to absorb floating-point excursions above ``r = 1``.
    """
    v1 = _strict_lower(r1, "corr_of_corr_distance: first matrix")
    v2 = _strict_lower(r2, "corr_of_corr_distance: second matrix")
    if v1.shape != v2.shape:
        raise InputShapeError(
            "corr_of_corr_distance requires matrices of equal size, got "
            f"{np.asarray(r1).shape} and {np.asarray(r2).shape}"
        )
    # scipy's 'correlation' metric is exactly 1 - pearson(v1, v2)
    one_minus_r = float(pdist(np.vstack([v1, v2]), "correlation")[0])
    return float(np.sqrt(max(one_minus_r, 0.0)))


def correlation_from_timeseries(x) -> np.ndarray:
    """Pearson correlation matrix of the columns of a time-series array.

    Parameters
    ----------
    x : array, shape (n_timepoints, n_channels)
        One multivariate series; rows are time points.

    Returns
    -------
    ndarray, shape (n_channels, n_channels)
        Symmetric, unit diagonal, entries clipped to [-1, 1].
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
    sd = x.std(axis=0)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd == 0.0)[0])
        raise DegenerateInputError(f"column {bad} is constant; correlation undefined")
    r = np.atleast_2d(np.corrcoef(x, rowvar=False))
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def soft_threshold(r, level, out=None):
    """Shrink off-diagonal entries of correlation matrices toward zero.

    ``r`` is one square matrix or a stack of them, shape ``(n, p, p)``.
    Each off-diagonal entry ``v`` becomes ``sign(v) * max(|v| - level, 0)``;
    the diagonal is left untouched.  The result is written to ``out``
    when given, an array of ``r``'s shape that must not overlap ``r``;
    a stack needs no temporary larger than one matrix.

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
    level = float(level)
    if not (0.0 <= level <= 1.0):
        raise ParameterError(f"threshold level must lie in [0, 1], got {level}")
    if out is None:
        out = np.empty_like(r)
    elif out.shape != r.shape:
        raise InputShapeError(f"out has shape {out.shape}, expected {r.shape}")
    src, dst = r.reshape(-1, p, p), out.reshape(-1, p, p)
    zeros = np.empty(len(src), dtype=np.int64)
    # one matrix at a time, so it stays in cache through every pass
    for k, (v, m) in enumerate(zip(src, dst)):
        np.abs(v, out=m)
        np.subtract(m, level, out=m)
        np.maximum(m, 0.0, out=m)
        np.multiply(np.sign(v), m, out=m)
        np.fill_diagonal(m, np.diagonal(v))
        diagonal_zeros = np.count_nonzero(np.diagonal(m) == 0.0)
        zeros[k] = np.count_nonzero(m == 0.0) - diagonal_zeros
    fractions = zeros / (p * (p - 1))
    return out, fractions if r.ndim == 3 else float(fractions[0])


def connectivity_score(r) -> float:
    """Overall connectivity of a correlation matrix: ``-log det(R)``.

    Identity (no correlation) scores 0; stronger dependence pushes the
    determinant toward 0 and the score up.  Computed from a Cholesky
    factorization for numerical stability.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise InputShapeError(f"expected a square matrix, got shape {r.shape}")
    try:
        chol = np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "matrix is not positive definite; -log det is undefined"
        ) from exc
    return float(-2.0 * np.sum(np.log(np.diag(chol))))
