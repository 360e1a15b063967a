"""Grouped repeated-measures data and grouped distance matrices.

A :class:`GroupedSample` holds the observations of several individuals,
each measured one or more times, as one read-only stacked array:
payloads may be vectors, square matrices, or multivariate time series,
but all payloads in a sample share one shape.  The payload pipeline
works on whole stacks: time series become correlation matrices, an
optional soft threshold shrinks them (:func:`~dbicc.distances.soft_threshold`
takes a whole stack), and each payload becomes the row its metric
compares.  :func:`compute_distance_matrix` turns a sample into a
:class:`DistanceMatrix`.  Estimators consume it, or the
:class:`BlockStats` (per-individual squared-distance sums) read off it;
for ``l2`` and correlation of correlations :func:`block_stats` takes
them straight from the payload rows instead.

Rows of a sample and of a distance matrix follow (individual, replicate)
order: individuals in order of first appearance, replicates in their
stated order within each individual.  All types are immutable after
construction and safe to share across workers.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.spatial.distance import pdist, squareform

from .distances import (
    DistanceSpec,
    Metric,
    _standardize_rows,
    correlation_from_timeseries,
    soft_threshold,
)
from .errors import (
    DegenerateInputError,
    InputShapeError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    MetricMismatchError,
    NonFiniteError,
)

__all__ = [
    "PayloadKind",
    "GroupedSample",
    "DistanceMatrix",
    "BlockStats",
    "build_grouped_sample",
    "compute_distance_matrix",
    "block_stats",
]


class PayloadKind(str, Enum):
    VECTOR = "vector"
    MATRIX = "matrix"
    TIMESERIES = "timeseries"


@dataclass(frozen=True)
class GroupedSample:
    """Repeated observations of several individuals with a common payload shape.

    ``values`` stacks every payload in group order, shape
    ``(n, *payload_shape)``: the ``group_sizes[0]`` replicates of the
    first individual, then those of the second, and so on.  ``labels``
    names the individuals.  The sample keeps ``values`` as a read-only,
    C-contiguous float64 array, a view when the given array already is
    one, so consumers that write must copy.

    Invariants enforced at construction: at least two individuals, one
    label per individual, every individual has at least one replicate
    and at least one has two or more (otherwise within-individual spread
    is undefined), one payload per replicate with the dimension its kind
    needs (square for matrices), and all values finite.
    """

    values: np.ndarray
    group_sizes: np.ndarray
    labels: tuple
    payload_kind: PayloadKind

    def __post_init__(self):
        kind = PayloadKind(self.payload_kind)
        sizes = np.array(self.group_sizes, dtype=np.int64)
        labels = tuple(self.labels)
        values = np.ascontiguousarray(self.values, dtype=float).view()
        if sizes.ndim != 1 or sizes.size != len(labels):
            raise InputShapeError(
                f"need one label per individual, got {len(labels)} labels "
                f"for group sizes of shape {sizes.shape}"
            )
        if sizes.size < 2:
            raise InsufficientGroupsError(
                f"need at least 2 individuals, got {sizes.size}"
            )
        if np.any(sizes < 1):
            empty = labels[int(np.argmax(sizes < 1))]
            raise InputShapeError(f"individual {empty!r} has no replicates")
        total = int(sizes.sum())
        if values.ndim == 0 or values.shape[0] != total:
            raise InputShapeError(
                f"values must stack {total} payloads, got shape {values.shape}"
            )
        shape = values.shape[1:]
        expected_ndim = 1 if kind is PayloadKind.VECTOR else 2
        if len(shape) != expected_ndim:
            raise InputShapeError(
                f"{kind.value} payloads must be {expected_ndim}-D, got shape {shape}"
            )
        if kind is PayloadKind.MATRIX and shape[0] != shape[1]:
            raise InputShapeError(f"matrix payloads must be square, got shape {shape}")
        finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        if not finite.all():
            row = int(np.argmin(finite))
            owner = int(np.searchsorted(np.cumsum(sizes), row, side="right"))
            raise NonFiniteError(
                f"payload of individual {labels[owner]!r} contains NaN or Inf"
            )
        if not np.any(sizes >= 2):
            raise InsufficientReplicatesError(
                "at least one individual needs 2+ replicates; "
                "within-individual spread is undefined otherwise"
            )
        values.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "payload_kind", kind)

    @property
    def n_individuals(self) -> int:
        return self.group_sizes.size

    @property
    def n_total(self) -> int:
        return self.values.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[-1]


def build_grouped_sample(records, payload_kind=None) -> GroupedSample:
    """Assemble a :class:`GroupedSample` from tabular rows.

    Parameters
    ----------
    records : iterable of (individual_id, replicate_id, payload)
        Payloads are array-likes of one common shape.  Individuals are
        ordered by first appearance, replicates by ``replicate_id``
        within each individual.
    payload_kind : PayloadKind or str, optional
        Defaults to ``vector`` for 1-D payloads and ``matrix`` for 2-D;
        pass ``timeseries`` explicitly for non-square series payloads.
    """
    by_individual: dict = {}
    for ind_id, rep_id, payload in records:
        by_individual.setdefault(str(ind_id), []).append((rep_id, payload))
    if len(by_individual) < 2:
        raise InsufficientGroupsError(
            f"need at least 2 distinct individuals, got {len(by_individual)}"
        )
    payloads = []
    for reps in by_individual.values():
        reps.sort(key=lambda item: item[0])
        payloads.extend(np.asarray(arr, dtype=float) for _, arr in reps)
    shapes = {arr.shape for arr in payloads}
    if len(shapes) != 1:
        raise InputShapeError(f"payloads have mixed shapes: {sorted(shapes)}")
    if payload_kind is None:
        first = payloads[0]
        if first.ndim == 1:
            payload_kind = PayloadKind.VECTOR
        elif first.ndim == 2:
            payload_kind = PayloadKind.MATRIX
        else:
            raise InputShapeError(f"cannot infer payload kind from shape {first.shape}")
    return GroupedSample(
        values=np.stack(payloads),
        group_sizes=[len(reps) for reps in by_individual.values()],
        labels=tuple(by_individual),
        payload_kind=payload_kind,
    )


# Rows per block of the validation pass; its temporaries are O(rows * n).
_VALIDATE_ROWS = 256


def _check_values(vals):
    """Reject a square matrix that is not a valid dissimilarity matrix.

    Decides and raises exactly as the whole-matrix checks, in order:
    ``np.isfinite(v).all()``, ``(v >= 0).all()``,
    ``np.allclose(v, v.T, atol=tol, rtol=0)`` and
    ``np.allclose(np.diag(v), 0, atol=tol)`` with
    ``tol = 1e-8 * max(abs(v).max(), 1)``, but in one pass over row
    blocks.  Block ``[r0, r1)`` is compared with its mirror in rows
    ``< r1``, which are already known to be finite.
    """
    n = vals.shape[0]
    negative = False
    scale = asym = diag = 0.0
    for r0 in range(0, n, _VALIDATE_ROWS):
        r1 = min(r0 + _VALIDATE_ROWS, n)
        blk = vals[r0:r1]
        lo, hi = blk.min(), blk.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFiniteError("distance matrix contains NaN or Inf")
        negative |= bool(lo < 0.0)
        scale = max(scale, float(hi))
        diff = blk[:, :r1] - vals[:r1, r0:r1].T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
        diag = max(diag, float(np.abs(np.diagonal(blk[:, r0:r1])).max()))
    if negative:
        raise InputShapeError("distances must be nonnegative")
    tol = 1e-8 * max(scale, 1.0)
    if asym > tol:
        raise InputShapeError("distance matrix is not symmetric")
    if diag > tol:
        raise InputShapeError("distance matrix diagonal must be zero")


@dataclass(frozen=True)
class DistanceMatrix:
    """A symmetric dissimilarity matrix whose rows are grouped by individual.

    ``values[a, b]`` is the dissimilarity between payloads ``a`` and ``b``;
    ``individual_index[a]`` / ``replicate_index[a]`` locate row ``a`` in the
    grouping.  Rows must be in canonical order: individual blocks
    contiguous and numbered 0..I-1, replicates numbered 0..J_i-1 within
    each block.  The triangle inequality is not required.
    """

    values: np.ndarray
    individual_index: np.ndarray
    replicate_index: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        ind = np.asarray(self.individual_index, dtype=np.int64)
        rep = np.asarray(self.replicate_index, dtype=np.int64)
        n = vals.shape[0]
        if vals.ndim != 2 or vals.shape != (n, n):
            raise InputShapeError(f"distance matrix must be square, got {vals.shape}")
        if ind.shape != (n,) or rep.shape != (n,):
            raise InputShapeError(
                f"group indices must have length {n}, got {ind.shape} and {rep.shape}"
            )
        _check_values(vals)
        # canonical (individual, replicate) layout
        boundaries = np.flatnonzero(np.diff(ind)) + 1
        blocks = np.split(np.arange(n), boundaries)
        seen = set()
        for b, rows in enumerate(blocks):
            i = int(ind[rows[0]])
            if i in seen or i != b:
                raise InputShapeError(
                    "individual indices must form contiguous blocks numbered 0..I-1"
                )
            seen.add(i)
            if not np.array_equal(rep[rows], np.arange(len(rows))):
                raise InputShapeError(
                    f"replicate indices of individual {i} must run 0..J-1 in order"
                )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "individual_index", ind)
        object.__setattr__(self, "replicate_index", rep)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_total(self) -> int:
        return self.values.shape[0]

    @property
    def n_individuals(self) -> int:
        return int(self.individual_index[-1]) + 1 if self.n_total else 0

    @property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.individual_index, minlength=self.n_individuals)

    @property
    def groups(self):
        """(individual_index, replicate_index) pairs, one per row."""
        return list(zip(self.individual_index.tolist(), self.replicate_index.tolist()))


def _matrices(sample: GroupedSample) -> np.ndarray:
    """The sample's payloads, each time series as its correlation matrix.

    Time series give a new stack; other kinds give the sample's own
    read-only ``values``.
    """
    if sample.payload_kind is not PayloadKind.TIMESERIES:
        return sample.values
    p = sample.feature_dim
    out = np.empty((sample.n_total, p, p))
    for k, series in enumerate(sample.values):
        out[k] = correlation_from_timeseries(series)
    return out


def _metric_rows(mats, metric: Metric) -> np.ndarray:
    """The rows ``metric`` compares, one per payload of the stack ``mats``.

    Rows are the flattened payloads for ``l2``/``l1``, a view of
    ``mats``, and a new array of the strict lower triangles for
    correlation of correlations.
    """
    flat = mats.reshape(len(mats), -1)
    if metric is not Metric.CORR_OF_CORR:
        return flat
    p = mats.shape[1]
    if p < 3:
        raise DegenerateInputError(
            "correlation-of-correlations needs matrices of size 3x3 or larger"
        )
    i, j = np.tril_indices(p, k=-1)
    # take keeps the rows C-contiguous, so row reductions sum as before
    rows = np.take(flat, i * p + j, axis=1)
    flat_ptp = rows.max(axis=1) - rows.min(axis=1)
    if np.any(flat_ptp == 0.0):
        bad = int(np.flatnonzero(flat_ptp == 0.0)[0])
        raise DegenerateInputError(
            f"payload {bad} has a constant lower triangle; "
            "correlation of correlations is undefined"
        )
    return rows


def _payload_rows(sample: GroupedSample, spec: DistanceSpec) -> np.ndarray:
    """The payload pipeline: series -> correlation -> threshold -> metric rows.

    Returns a new array, which the caller may overwrite.
    """
    mats = _matrices(sample)
    matrices = sample.payload_kind is not PayloadKind.VECTOR
    if spec.threshold is not None:
        if not matrices:
            raise MetricMismatchError(
                "soft-thresholding applies to matrix payloads, not "
                f"{sample.payload_kind.value} payloads"
            )
        mats = soft_threshold(mats, spec.threshold)[0]
    if spec.kind is Metric.CORR_OF_CORR and not matrices:
        raise MetricMismatchError(
            "correlation-of-correlations requires square matrix payloads, "
            f"got {sample.payload_kind.value} payloads"
        )
    rows = _metric_rows(mats, spec.kind)
    # only rows that view the sample's own values are read-only
    return rows if rows.flags.writeable else rows.copy()


def compute_distance_matrix(sample: GroupedSample, metric) -> DistanceMatrix:
    """Pairwise dissimilarities over all payloads of a sample.

    Time-series payloads are converted to correlation matrices first; a
    soft-threshold level in the spec is then applied to matrix payloads.
    Every unordered pair is evaluated exactly once, so the result is
    symmetric with an exactly zero diagonal and deterministic for fixed
    inputs.

    Parameters
    ----------
    sample : GroupedSample
    metric : DistanceSpec, Metric, or str
        Plain kinds are promoted to a threshold-free spec.
    """
    spec = metric if isinstance(metric, DistanceSpec) else DistanceSpec(kind=metric)
    return _pairwise(_payload_rows(sample, spec), spec.kind, sample)


def _pairwise(rows, metric: Metric, sample: GroupedSample) -> DistanceMatrix:
    """Distance matrix of ``rows``, one per row of ``sample``'s grouping.

    Correlation of correlations is ``sqrt(1/2)`` times the Euclidean
    distance between rows standardized in place to mean 0 and norm 1,
    which keeps its digits where ``1 - r`` would cancel.
    """
    if metric is Metric.CORR_OF_CORR:
        vals = squareform(pdist(_standardize_rows(rows), "euclidean"))
        vals *= np.sqrt(0.5)
    else:
        scipy_name = "euclidean" if metric is Metric.L2_VEC else "cityblock"
        vals = squareform(pdist(rows, scipy_name))
    sizes = sample.group_sizes
    individual = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    return DistanceMatrix(
        values=vals,
        individual_index=individual,
        replicate_index=np.arange(individual.size) - starts[individual],
        labels=sample.labels,
    )


class BlockStats(NamedTuple):
    """Squared-distance sums per individual and per pair of individuals.

    ``sizes[g]`` is individual ``g``'s replicate count, ``within[g]`` the
    sum of squared distances over the unordered pairs of its replicates,
    and ``cross[g, h]`` the sum over all ordered pairs between the
    replicates of ``g`` and ``h``; so ``cross[g, g]`` is twice
    ``within[g]``, the duplicated-block sum including its zero diagonal.
    Built from a :class:`DistanceMatrix` by ``bootstrap._block_sums``, or
    from payload rows by :func:`_payload_block_stats`.

    ``means`` is ``None`` for sums read off a matrix.  From payload rows
    it holds one row per individual, the group means relative to the
    first payload, scaled so that ``cross[g, h]`` is
    ``J_g J_h ||means[g] - means[h]||^2 + J_h within[g] / J_g +
    J_g within[h] / J_h`` with ``J = sizes``; the bootstrap computes its
    replicates from them instead of from ``cross``.
    """

    sizes: np.ndarray
    within: np.ndarray
    cross: np.ndarray
    means: np.ndarray | None = None


# Bytes of rows the payload block-sum kernel holds in a temporary at a
# time; chunks that stay in cache are fastest.
_ROW_CHUNK_BYTES = 1 << 16


def _chunks(n_rows, width):
    """Slices of rows, each ``_ROW_CHUNK_BYTES`` of ``width`` floats or one row."""
    step = max(1, _ROW_CHUNK_BYTES // (8 * max(width, 1)))
    return (slice(a, a + step) for a in range(0, n_rows, step))


def _rows_block_sums(rows, sizes, scale) -> BlockStats:
    """Block sums of ``scale`` times the squared Euclidean row distances.

    ``rows`` holds one row per payload in group order and is overwritten.
    For group ``g`` with ``J`` rows, mean ``m`` and spread
    ``W = sum ||x - m||^2``, the within sum is ``J * W`` and the cross sum
    with group ``h`` is ``J J_h ||m - m_h||^2 + J_h W + J W_h`` (the
    sums-of-squares decomposition behind PERMANOVA).  Each later row is
    first taken relative to its group's first row, which stays as it is,
    and the means relative to the very first row, so a common offset
    cancels exactly and identical payloads give exact zeros.  Besides
    ``rows`` the temporaries are one I-by-p array, the I-by-I result and
    row chunks.  The means, scaled by ``sqrt(scale)`` after ``cross`` is
    taken from them, become the result's ``means``.
    """
    n, width = rows.shape
    n_groups = sizes.size
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    group = np.repeat(np.arange(n_groups), sizes)
    later = np.ones(n, dtype=bool)
    later[starts] = False
    first = starts[group]
    for c in _chunks(n, width):
        np.subtract(rows[c], rows[first[c]], out=rows[c], where=later[c, None])
    # group means of the offsets (a first row's is 0), from one sparse
    # indicator product over the later rows
    indicator = scipy.sparse.csr_array(
        (np.ones(n - n_groups), np.flatnonzero(later),
         np.concatenate(([0], np.cumsum(sizes - 1)))),
        shape=(n_groups, n),
    )
    means = indicator @ rows
    means /= sizes[:, None]
    for c in _chunks(n, width):
        np.subtract(rows[c], means[group[c]], out=rows[c], where=later[c, None])
    squares = np.einsum("ij,ij->i", rows, rows)
    squares[starts] = np.einsum("ij,ij->i", means, means)  # first rows: -mean
    spread = np.bincount(group, weights=squares)
    for c in _chunks(n_groups, width):
        means[c] += rows[starts[c]] - rows[0]
    cross = squareform(pdist(means, "sqeuclidean"))
    per_replicate = spread / sizes
    cross += per_replicate[:, None]
    cross += per_replicate[None, :]
    cross *= scale * sizes[:, None]
    cross *= sizes[None, :]
    within = scale * sizes * spread
    np.fill_diagonal(cross, 2.0 * within)
    if scale != 1.0:
        means *= np.sqrt(scale)
    return BlockStats(sizes, within, cross, means)


def _payload_block_stats(rows, metric: Metric, sample: GroupedSample) -> BlockStats:
    """Block sums of ``l2`` or correlation-of-correlations metric rows.

    ``rows`` (from :func:`_metric_rows`) are overwritten.  For rows ``z``
    standardized to mean 0 and norm 1, ``1 - r`` is ``||z_a - z_b||^2 / 2``,
    so correlation of correlations is ``l2`` on ``z`` at half scale.
    Raises :class:`NonFiniteError` where the distance matrix would hold
    NaN or Inf, or its squares overflow.
    """
    if metric is Metric.L1_VEC:
        raise MetricMismatchError(
            "l1 block sums need the distance matrix; use compute_distance_matrix"
        )
    scale = 1.0
    # overflow and underflow show up as a non-finite total, checked below
    with np.errstate(all="ignore"):
        if metric is Metric.CORR_OF_CORR:
            _standardize_rows(rows)
            scale = 0.5
        stats = _rows_block_sums(rows, sample.group_sizes, scale)
    if not np.isfinite(stats.cross.sum()):
        raise NonFiniteError("squared distances overflow float64 or are undefined")
    return stats


def block_stats(sample: GroupedSample, metric) -> BlockStats:
    """Block sums of the squared ``l2`` or correlation-of-correlations distances.

    The payload pipeline is that of :func:`compute_distance_matrix`, and
    the sums equal those of its distance matrix up to rounding, but no
    n-by-n matrix is built: for n payloads of p values and I individuals
    this takes O(n*p + I^2*p) time and O(n*p + I^2) memory.  ``l1`` raises
    :class:`MetricMismatchError`.

    Parameters
    ----------
    sample : GroupedSample
    metric : DistanceSpec, Metric, or str
    """
    spec = metric if isinstance(metric, DistanceSpec) else DistanceSpec(kind=metric)
    return _payload_block_stats(_payload_rows(sample, spec), spec.kind, sample)
