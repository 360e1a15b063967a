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

Samples and distance matrices share one grouping model: rows in group
order, described by ``group_sizes`` (the first individual's rows, then
the second's, and so on) and optional ``labels`` naming the
individuals.  :func:`_grouping` checks it for both types, and
:func:`_group_order` puts labelled rows into it: individuals in order of
first appearance, replicates in ascending label order within each.  All
types are immutable after construction and safe to share across workers.
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
    _metric_rows,
    _standardize_rows,
    correlation_from_timeseries,
    soft_threshold,
)
from .errors import (
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


def _grouping(sizes, labels, n_rows):
    """Checked ``(group_sizes, labels)`` for ``n_rows`` rows in group order.

    The sizes must be 1-D, each at least 1, and add up to ``n_rows``;
    the labels are empty or name every individual.  Returns the sizes as
    a read-only int64 array and the labels as a tuple.
    """
    sizes = np.array(sizes, dtype=np.int64)
    labels = tuple(labels)
    if sizes.ndim != 1:
        raise InputShapeError(f"group sizes must be 1-D, got shape {sizes.shape}")
    if labels and len(labels) != sizes.size:
        raise InputShapeError(
            f"need one label per individual, got {len(labels)} labels "
            f"for {sizes.size} individuals"
        )
    if np.any(sizes < 1):
        g = int(np.argmax(sizes < 1))
        raise InputShapeError(
            f"individual {labels[g] if labels else g!r} has no replicates"
        )
    if int(sizes.sum()) != n_rows:
        raise InputShapeError(
            f"group sizes need {int(sizes.sum())} rows, got {n_rows}"
        )
    sizes.flags.writeable = False
    return sizes, labels


def _between_pair_count(group_sizes) -> int:
    """Unordered between-individual pair count; raises unless 2+ individuals."""
    sizes = np.asarray(group_sizes, dtype=np.int64)
    if sizes.size < 2:
        raise InsufficientGroupsError(f"need at least 2 individuals, got {sizes.size}")
    total = int(sizes.sum())
    return (total * total - int((sizes * sizes).sum())) // 2


def _within_pair_count(group_sizes) -> int:
    """Unordered within-individual pair count; raises if it is zero."""
    sizes = np.asarray(group_sizes, dtype=np.int64)
    count = int((sizes * (sizes - 1) // 2).sum())
    if count == 0:
        raise InsufficientReplicatesError(
            "at least one individual needs 2+ replicates; "
            "within-individual spread is undefined otherwise"
        )
    return count


def _require_finite(*sums):
    """Raise unless every squared-distance sum is finite."""
    if not np.isfinite(sums).all():
        raise NonFiniteError("squared distances overflow float64")


def _group_order(individuals, replicate_keys):
    """Order rows by individual, then by replicate: ``(order, sizes, labels)``.

    Row ``k`` belongs to individual ``individuals[k]`` and sorts by
    ``replicate_keys[k]``.  Individuals come in order of first appearance,
    and each one's rows in ascending key order, ties in row order;
    ``order`` lists the row numbers in that order, ``sizes`` counts each
    individual's rows and ``labels`` names the individuals.
    """
    members: dict = {}
    for row, individual in enumerate(individuals):
        members.setdefault(individual, []).append(row)
    order = [
        row
        for rows in members.values()
        for row in sorted(rows, key=replicate_keys.__getitem__)
    ]
    sizes = [len(rows) for rows in members.values()]
    return np.array(order, dtype=np.intp), np.array(sizes), tuple(members)


@dataclass(frozen=True)
class GroupedSample:
    """Repeated observations of several individuals with a common payload shape.

    ``values`` stacks every payload in group order, shape
    ``(n, *payload_shape)``: the ``group_sizes[0]`` replicates of the
    first individual, then those of the second, and so on.  ``labels``
    names the individuals.  The sample keeps ``values`` as a read-only,
    C-contiguous float64 array, a view when the given array already is
    one, so consumers that write must copy.

    Invariants enforced at construction: one payload per row of the
    grouping (:func:`_grouping`), with the dimension its kind needs
    (square for matrices); at least two individuals, one label per
    individual, at least one individual with two or more replicates
    (otherwise within-individual spread is undefined), and all values
    finite.
    """

    values: np.ndarray
    group_sizes: np.ndarray
    labels: tuple
    payload_kind: PayloadKind

    def __post_init__(self):
        kind = PayloadKind(self.payload_kind)
        values = np.ascontiguousarray(self.values, dtype=float).view()
        shape = values.shape[1:]
        expected_ndim = 1 if kind is PayloadKind.VECTOR else 2
        if len(shape) != expected_ndim:
            raise InputShapeError(
                f"{kind.value} payloads must be {expected_ndim}-D, got shape {shape}"
            )
        if kind is PayloadKind.MATRIX and shape[0] != shape[1]:
            raise InputShapeError(f"matrix payloads must be square, got shape {shape}")
        sizes, labels = _grouping(self.group_sizes, self.labels, values.shape[0])
        _between_pair_count(sizes)
        if not labels:
            raise InputShapeError("need one label per individual, got none")
        finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        if not finite.all():
            row = int(np.argmin(finite))
            owner = int(np.searchsorted(np.cumsum(sizes), row, side="right"))
            raise NonFiniteError(
                f"payload of individual {labels[owner]!r} contains NaN or Inf"
            )
        _within_pair_count(sizes)
        values.flags.writeable = False
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
    records = list(records)
    order, sizes, labels = _group_order(
        [str(ind_id) for ind_id, _, _ in records], [rep for _, rep, _ in records]
    )
    # before the payloads: no records leave no payload shape to check
    _between_pair_count(sizes)
    payloads = [np.asarray(records[k][2], dtype=float) for k in order]
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
        group_sizes=sizes,
        labels=labels,
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

    ``values[a, b]`` is the dissimilarity between payloads ``a`` and ``b``.
    Rows are in group order: the ``group_sizes[0]`` replicates of the
    first individual, then those of the second, and so on.  ``labels``
    names the individuals, or is empty.  The grouping is checked as by
    :func:`_grouping`, and the values are checked to be finite,
    nonnegative, symmetric and zero on the diagonal.  The triangle
    inequality is not required.  One individual, or none with replicates,
    is accepted: the estimators reject such a grouping.
    """

    values: np.ndarray
    group_sizes: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise InputShapeError(f"distance matrix must be square, got {vals.shape}")
        sizes, labels = _grouping(self.group_sizes, self.labels, vals.shape[0])
        _check_values(vals)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "labels", labels)

    @property
    def n_total(self) -> int:
        return self.values.shape[0]

    @property
    def n_individuals(self) -> int:
        return self.group_sizes.size


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


def _require_matrix_payloads(sample: GroupedSample):
    """Raise unless soft-thresholding applies to the sample: matrix payloads."""
    if sample.payload_kind is PayloadKind.VECTOR:
        raise MetricMismatchError(
            "soft-thresholding applies to matrix payloads, not vector payloads"
        )


def _payload_rows(sample: GroupedSample, spec: DistanceSpec) -> np.ndarray:
    """The payload pipeline: series -> correlation -> threshold -> metric rows.

    Returns a new array, which the caller may overwrite.
    """
    mats = _matrices(sample)
    matrices = sample.payload_kind is not PayloadKind.VECTOR
    if spec.threshold is not None:
        _require_matrix_payloads(sample)
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
    return DistanceMatrix(vals, sample.group_sizes, sample.labels)


class BlockStats(NamedTuple):
    """Squared-distance sums per individual and per pair of individuals.

    ``sizes[g]`` is individual ``g``'s replicate count and ``within[g]``
    the sum of squared distances over the unordered pairs of its
    replicates.  The sums between individuals come in one of two forms,
    never both:

    * ``cross[g, h]``, the sum over all ordered pairs between the
      replicates of ``g`` and ``h``; so ``cross[g, g]`` is twice
      ``within[g]``, the duplicated-block sum including its zero
      diagonal.  Sums read off a :class:`DistanceMatrix` (by
      ``bootstrap._block_sums``) take this form, and so do sums from
      payload rows of p values when p > I, the number of individuals.
    * ``means``, one row per individual: the group means relative to the
      first payload, scaled so that ``cross[g, h]`` would be
      ``J_g J_h ||means[g] - means[h]||^2 + J_h within[g] / J_g +
      J_g within[h] / J_h`` with ``J = sizes``.  Sums from payload rows
      take this I-by-p form when p <= I, and ``cross`` is ``None``.

    :func:`_between_sum` and :func:`_resampled_sums` read either form.
    """

    sizes: np.ndarray
    within: np.ndarray
    cross: np.ndarray | None
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
    cancels exactly and identical payloads give exact zeros.  With I
    groups of p-value rows, the result holds the means, scaled by
    ``sqrt(scale)``, when p <= I, and otherwise the I-by-I ``cross``
    taken from them.  Besides ``rows`` the temporaries are the I-by-p
    means, row chunks and, when p > I, the I-by-I result.
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
    within = scale * sizes * spread
    if width <= n_groups:
        if scale != 1.0:
            means *= np.sqrt(scale)
        return BlockStats(sizes, within, None, means)
    cross = squareform(pdist(means, "sqeuclidean"))
    per_replicate = spread / sizes
    cross += per_replicate[:, None]
    cross += per_replicate[None, :]
    cross *= scale * sizes[:, None]
    cross *= sizes[None, :]
    np.fill_diagonal(cross, 2.0 * within)
    return BlockStats(sizes, within, cross)


# Bytes of temporaries per chunk of two-pass spreads (a chunk holds at
# least one row of weights).
_TWO_PASS_BYTES = 1 << 22


def _two_pass_spread(means, weights, picks):
    """Weighted spread of the means in two passes, one per row of ``weights``.

    Computes ``sum_g w_g ||means[g] - mu_w||^2`` for each row ``w``.  Each
    row's means are taken relative to ``means[picks[r]]``, an
    individual the row weights, and so is its weighted mean ``mu_w``: a
    row whose weighted means are bitwise equal gets exactly 0.  Each row
    is computed on its own, so the chunking does not change the bits.
    """
    out = np.empty(weights.shape[0])
    step = max(1, _TWO_PASS_BYTES // (16 * means.size))
    for a in range(0, weights.shape[0], step):
        w = weights[a : a + step]
        diff = means[None, :, :] - means[picks[a : a + step], None, :]
        centre = (diff * w[:, :, None]).sum(axis=1) / w.sum(axis=1)[:, None]
        diff -= centre[:, None, :]
        diff *= diff
        out[a : a + step] = (diff.sum(axis=2) * w).sum(axis=1)
    return out


def _spread_of_means(sizes, means, counts, total, picks):
    """Weighted spread of the individual means, one value per row of ``counts``.

    For the weights ``w = c * sizes`` of each row ``c`` of ``counts``,
    whose sum is ``total``, the spread is ``S(w) = sum_g w_g ||means[g] -
    mu_w||^2`` with ``mu_w`` the ``w``-weighted mean.  One pass,
    ``w.q - ||M^T w||^2 / sum(w)``, on the I-by-p means ``M`` centred at
    their ``sizes``-weighted mean, with ``q`` their squared norms:
    O(I*p) per row.  Rows where the subtraction cancels more than half of
    ``w.q`` are redone by :func:`_two_pass_spread` about ``picks``.
    """
    centred = means - (sizes @ means) / sizes.sum()
    norms = np.einsum("ij,ij->i", centred, centred)
    centred *= sizes[:, None]
    proj = counts @ centred
    weighted = counts @ (sizes * norms)
    spread = weighted - np.einsum("ij,ij->i", proj, proj) / total
    redo = np.flatnonzero(spread < 0.5 * weighted)
    if redo.size:
        weights = counts[redo] * sizes
        spread[redo] = _two_pass_spread(means, weights, picks[redo])
    return spread


def _resampled_sums(sizes, within, cross, means, counts, picks):
    """``c^T cross c`` for each row ``c`` of ``counts``, from either form.

    Takes the fields of a :class:`BlockStats`.  A row of ``counts`` says
    how often a resample draws each individual, and ``picks[r]`` is an
    individual that row ``r`` draws.  ``c^T cross c`` sums the squared
    distances over all ordered pairs of the resample's payloads.  From
    ``cross`` it is the O(I^2) product.  From the means, for
    ``w = c * sizes`` it is ``2 sum(w) (S(w) + c . (within / sizes))``,
    where ``S(w)`` is the ``w``-weighted spread of the means
    (:func:`_spread_of_means`), in O(I*p).
    """
    if means is None:
        return ((counts @ cross) * counts).sum(axis=1)
    total = counts @ sizes
    spread = _spread_of_means(sizes, means, counts, total, picks)
    spread += counts @ (within / sizes)
    return 2.0 * total * spread


def _between_sum(stats: BlockStats):
    """Sum of the squared distances over the unordered between-individual pairs.

    From ``cross``, half its off-diagonal sum.  From the means, the
    resample that draws every individual once: half of ``c^T cross c``
    less its diagonal, for ``c`` all ones, which is
    ``N S(J) + sum_g W_g (N - J_g)`` with ``W = within / sizes``, ``N``
    the payload count and ``S(J)`` the ``sizes``-weighted spread of the
    means.  Bitwise-equal means and zero ``within`` give exactly 0.
    """
    sizes, within, cross, means = stats
    if means is None:
        off_diagonal = ~np.eye(sizes.size, dtype=bool)
        return np.sum(cross, where=off_diagonal) / 2.0
    ones = np.ones((1, sizes.size))
    every = np.zeros(1, dtype=np.intp)  # individual 0 is drawn
    quad = _resampled_sums(sizes, within, None, means, ones, every)
    return (quad[0] - ones[0] @ (2.0 * within)) / 2.0


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
        # the sum over all ordered pairs, diagonal blocks included
        total = 2.0 * (_between_sum(stats) + np.sum(stats.within))
    _require_finite(total)
    return stats


def block_stats(sample: GroupedSample, metric) -> BlockStats:
    """Block sums of the squared ``l2`` or correlation-of-correlations distances.

    The payload pipeline is that of :func:`compute_distance_matrix`, and
    the sums equal those of its distance matrix up to rounding, but no
    n-by-n matrix is built.  For n payloads of p values and I individuals
    the sums between individuals come as the I-by-p means when p <= I, in
    O(n*p) time, and as the I-by-I ``cross`` when p > I, in
    O(n*p + I^2*p) time (see :class:`BlockStats`); either way memory is
    O(n*p + I*min(I, p)).  ``l1`` raises :class:`MetricMismatchError`.

    Parameters
    ----------
    sample : GroupedSample
    metric : DistanceSpec, Metric, or str
    """
    spec = metric if isinstance(metric, DistanceSpec) else DistanceSpec(kind=metric)
    return _payload_block_stats(_payload_rows(sample, spec), spec.kind, sample)
