"""Grouped repeated-measures data and grouped distance matrices.

A :class:`GroupedSample` holds the observations of several individuals,
each measured one or more times; payloads may be vectors, square
matrices, or multivariate time series, but all payloads in a sample must
share one shape.  :func:`compute_distance_matrix` turns a sample into a
:class:`DistanceMatrix`.  Estimators consume it, or the
:class:`BlockStats` (per-individual squared-distance sums) read off it;
for ``l2`` and correlation of correlations :func:`block_stats` takes
them straight from the payloads instead.

Rows of a distance matrix follow (individual, replicate) order:
individuals in order of first appearance, replicates in their stated
order within each individual.  All types are immutable after
construction and safe to share across workers.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.spatial.distance import pdist, squareform

from .distances import (
    DistanceSpec,
    Metric,
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
    "IndividualRecord",
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
class IndividualRecord:
    """One individual's label and its ordered replicate payloads."""

    id: str
    replicates: tuple

    @property
    def n_replicates(self) -> int:
        return len(self.replicates)


@dataclass(frozen=True)
class GroupedSample:
    """Repeated observations of several individuals with a common payload shape.

    Invariants enforced at construction: at least two individuals, every
    individual has at least one replicate and at least one individual has
    two or more (otherwise within-individual spread is undefined), all
    payloads share one shape, and all payload values are finite.
    """

    individuals: tuple
    payload_kind: PayloadKind
    feature_dim: int = field(init=False)

    def __post_init__(self):
        kind = PayloadKind(self.payload_kind)
        object.__setattr__(self, "payload_kind", kind)
        if len(self.individuals) < 2:
            raise InsufficientGroupsError(
                f"need at least 2 individuals, got {len(self.individuals)}"
            )
        shapes = set()
        for rec in self.individuals:
            if rec.n_replicates < 1:
                raise InputShapeError(f"individual {rec.id!r} has no replicates")
            for arr in rec.replicates:
                shapes.add(arr.shape)
                if not np.all(np.isfinite(arr)):
                    raise NonFiniteError(
                        f"payload of individual {rec.id!r} contains NaN or Inf"
                    )
        if len(shapes) != 1:
            raise InputShapeError(f"payloads have mixed shapes: {sorted(shapes)}")
        (shape,) = shapes
        expected_ndim = 1 if kind is PayloadKind.VECTOR else 2
        if len(shape) != expected_ndim:
            raise InputShapeError(
                f"{kind.value} payloads must be {expected_ndim}-D, got shape {shape}"
            )
        if kind is PayloadKind.MATRIX and shape[0] != shape[1]:
            raise InputShapeError(f"matrix payloads must be square, got shape {shape}")
        if not any(rec.n_replicates >= 2 for rec in self.individuals):
            raise InsufficientReplicatesError(
                "at least one individual needs 2+ replicates; "
                "within-individual spread is undefined otherwise"
            )
        object.__setattr__(self, "feature_dim", int(shape[-1]))

    @property
    def n_individuals(self) -> int:
        return len(self.individuals)

    @property
    def group_sizes(self) -> np.ndarray:
        """Replicate count per individual, in group order."""
        return np.array([rec.n_replicates for rec in self.individuals], dtype=np.int64)

    @property
    def n_total(self) -> int:
        return int(self.group_sizes.sum())

    @property
    def labels(self) -> tuple:
        return tuple(rec.id for rec in self.individuals)

    def groups(self):
        """(individual_index, replicate_index) per row, in group order."""
        return [
            (i, j)
            for i, rec in enumerate(self.individuals)
            for j in range(rec.n_replicates)
        ]

    def payloads(self):
        """All payloads as a flat list, in group order."""
        return [arr for rec in self.individuals for arr in rec.replicates]


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
    order: list = []
    for ind_id, rep_id, payload in records:
        key = str(ind_id)
        arr = np.asarray(payload, dtype=float)
        if key not in by_individual:
            by_individual[key] = []
            order.append(key)
        by_individual[key].append((rep_id, arr))
    if len(order) < 2:
        raise InsufficientGroupsError(
            f"need at least 2 distinct individuals, got {len(order)}"
        )
    first = by_individual[order[0]][0][1]
    if payload_kind is None:
        if first.ndim == 1:
            payload_kind = PayloadKind.VECTOR
        elif first.ndim == 2:
            payload_kind = PayloadKind.MATRIX
        else:
            raise InputShapeError(f"cannot infer payload kind from shape {first.shape}")
    individuals = []
    for key in order:
        reps = sorted(by_individual[key], key=lambda item: item[0])
        individuals.append(
            IndividualRecord(id=key, replicates=tuple(arr for _, arr in reps))
        )
    return GroupedSample(individuals=tuple(individuals), payload_kind=payload_kind)


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


def _payloads_for_metric(sample: GroupedSample, spec: DistanceSpec):
    """Apply the payload pipeline (series -> correlation -> threshold)."""
    payloads = sample.payloads()
    kind = sample.payload_kind
    if kind is PayloadKind.TIMESERIES:
        payloads = [correlation_from_timeseries(x) for x in payloads]
        kind = PayloadKind.MATRIX
    if spec.threshold is not None:
        if kind is not PayloadKind.MATRIX:
            raise MetricMismatchError(
                "soft-thresholding applies to matrix payloads, not "
                f"{sample.payload_kind.value} payloads"
            )
        payloads = [soft_threshold(r, spec.threshold)[0] for r in payloads]
    if spec.kind is Metric.CORR_OF_CORR and kind is not PayloadKind.MATRIX:
        raise MetricMismatchError(
            "correlation-of-correlations requires square matrix payloads, "
            f"got {sample.payload_kind.value} payloads"
        )
    return payloads


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
    return _pairwise(_payloads_for_metric(sample, spec), spec.kind, sample)


def _stacked(payloads, metric: Metric, n: int) -> np.ndarray:
    """The ``n`` payloads as the rows a metric compares, in one new array.

    Rows are the flattened payloads for ``l2``/``l1`` and the strict lower
    triangles for correlation-of-correlations.  ``payloads`` may be any
    iterable; each payload is copied into its row as it arrives, so a
    generator never has more than one of them alive.  Every payload is
    consumed before a degenerate one is reported.
    """
    corr = metric is Metric.CORR_OF_CORR
    rows = tril = None
    for k, payload in enumerate(payloads):
        arr = np.asarray(payload, dtype=float)
        if corr and tril is None:
            tril = np.tril_indices(arr.shape[0], k=-1)
        row = arr[tril] if corr else arr.ravel()
        if rows is None:
            rows = np.empty((n, row.size))
        rows[k] = row
    if corr:
        if arr.shape[0] < 3:
            raise DegenerateInputError(
                "correlation-of-correlations needs matrices of size 3x3 or larger"
            )
        flat_ptp = rows.max(axis=1) - rows.min(axis=1)
        if np.any(flat_ptp == 0.0):
            bad = int(np.flatnonzero(flat_ptp == 0.0)[0])
            raise DegenerateInputError(
                f"payload {bad} has a constant lower triangle; "
                "correlation of correlations is undefined"
            )
    return rows


def _pairwise(payloads, metric: Metric, sample: GroupedSample) -> DistanceMatrix:
    """Distance matrix of ``payloads``, one per row of ``sample``'s grouping."""
    rows = _stacked(payloads, metric, sample.n_total)
    if metric is Metric.CORR_OF_CORR:
        vals = np.sqrt(np.maximum(squareform(pdist(rows, "correlation")), 0.0))
    else:
        scipy_name = "euclidean" if metric is Metric.L2_VEC else "cityblock"
        vals = squareform(pdist(rows, scipy_name))
    groups = sample.groups()
    return DistanceMatrix(
        values=vals,
        individual_index=np.array([g[0] for g in groups], dtype=np.int64),
        replicate_index=np.array([g[1] for g in groups], dtype=np.int64),
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
    from payloads by :func:`_payload_block_stats`.
    """

    sizes: np.ndarray
    within: np.ndarray
    cross: np.ndarray


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
    row chunks.
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
    return BlockStats(sizes, within, cross)


def _payload_block_stats(payloads, metric: Metric, sample: GroupedSample) -> BlockStats:
    """Block sums of ``l2`` or correlation-of-correlations payloads.

    For rows ``z`` standardized to mean 0 and norm 1, ``1 - r`` is
    ``||z_a - z_b||^2 / 2``, so correlation of correlations is ``l2`` on
    ``z`` at half scale.  Raises :class:`NonFiniteError` where the
    distance matrix would hold NaN or Inf, or its squares overflow.
    """
    if metric is Metric.L1_VEC:
        raise MetricMismatchError(
            "l1 block sums need the distance matrix; use compute_distance_matrix"
        )
    rows = _stacked(payloads, metric, sample.n_total)
    scale = 1.0
    # overflow and underflow show up as a non-finite total, checked below
    with np.errstate(all="ignore"):
        if metric is Metric.CORR_OF_CORR:
            rows -= rows.mean(axis=1, keepdims=True)
            rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
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
    return _payload_block_stats(_payloads_for_metric(sample, spec), spec.kind, sample)
