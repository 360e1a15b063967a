"""Grouped repeated-measures data and grouped distance matrices.

A :class:`GroupedSample` holds the observations of several individuals,
each measured one or more times, as one read-only stacked array:
payloads may be vectors, square matrices, or multivariate time series,
but all payloads in a sample share one shape.  The payload pipeline
works on whole stacks: time series become correlation matrices, an
optional soft threshold shrinks them, and each payload becomes the row
its metric compares.  :func:`compute_distance_matrix` turns a sample
into a :class:`DistanceMatrix`, the exact reference, from whole rows
(:func:`~dbicc.distances.soft_threshold` takes the stack);
:func:`block_stats` takes the :class:`BlockStats` (per-individual
squared-distance sums) that the estimators read straight from the
payload rows, with no n-by-n matrix.  For matrix and series payloads
it goes through the column pipeline (:class:`_MatrixColumns`), which
``sweep-threshold`` runs once per level: a symmetric stack contributes
only its lower triangle, and ``l1`` and ``l2`` compare only the columns
that a level leaves different between payloads.

``l2`` and correlation-of-correlations block sums are numpy work,
group sums included, and keep the individual means, whatever the
number of values in a payload row.  Only ``l1``'s ``cdist`` row chunks
and :func:`compute_distance_matrix` call a scipy kernel, imported on its
first call (:func:`dbicc.distances.load_kernels`), so importing this
module, or taking ``l2`` or correlation-of-correlations block sums,
loads no scipy module.

Samples and distance matrices share one grouping model: rows in group
order, described by ``group_sizes`` (the first individual's rows, then
the second's, and so on) and optional ``labels`` naming the
individuals.  :func:`_grouping` checks it for both types, and
:func:`_group_order` puts labelled rows into it, with one ``np.lexsort``:
individuals in order of first appearance, replicates in ascending key
order within each.  All types are immutable after construction and safe
to share across workers.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .distances import (
    DistanceSpec,
    Metric,
    _chunk_rows,
    _chunks,
    _metric_rows,
    _shrink,
    _standardized,
    _Workspace,
    cdist,
    correlation_from_timeseries,
    pdist,
    soft_threshold,
    squareform,
)
from .errors import (
    DbiccError,
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


def _owner(sizes, labels, row):
    """The label of the individual whose rows, in group order, hold ``row``."""
    return labels[int(np.searchsorted(np.cumsum(sizes), row, side="right"))]


def _group_order(individuals, replicate_keys):
    """Order rows by individual, then by replicate.

    Row ``k`` belongs to individual ``individuals[k]`` and sorts by
    ``replicate_keys[k]``; keys are hashable and orderable against each
    other.  Individuals come in order of first appearance, and each one's
    rows in ascending key order, ties in row order.  Returns ``(order,
    sizes, labels, repeated)``: ``order`` lists the row numbers in that
    order, ``sizes`` counts each individual's rows, ``labels`` names the
    individuals and ``repeated`` is True if an individual has two rows of
    equal key.  Each individual gets a code and each distinct key a rank,
    and one stable ``np.lexsort`` orders the rows by code, then rank.
    """
    n = len(individuals)
    codes = {label: k for k, label in enumerate(dict.fromkeys(individuals))}
    ranks = {key: r for r, key in enumerate(sorted(set(replicate_keys)))}
    individual = np.fromiter(map(codes.__getitem__, individuals), np.intp, n)
    rank = np.fromiter(map(ranks.__getitem__, replicate_keys), np.intp, n)
    order = np.lexsort((rank, individual))
    individual, rank = individual[order], rank[order]
    same = (individual[1:] == individual[:-1]) & (rank[1:] == rank[:-1])
    return order, np.bincount(individual), tuple(codes), bool(same.any())


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
            owner = _owner(sizes, labels, int(np.argmin(finite)))
            raise NonFiniteError(f"payload of individual {owner!r} contains NaN or Inf")
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
        within each individual, equal ids in record order.  Replicate ids
        must be hashable and orderable against every other id in the
        sample, not only those of the same individual: all ints, or all
        strings (which order lexically, ``"10"`` before ``"2"``).
    payload_kind : PayloadKind or str, optional
        Defaults to ``vector`` for 1-D payloads and ``matrix`` for 2-D;
        pass ``timeseries`` explicitly for non-square series payloads.
    """
    records = list(records)
    order, sizes, labels, _ = _group_order(
        [str(ind_id) for ind_id, _, _ in records], [rep for _, rep, _ in records]
    )
    # before the payloads: no records leave no payload shape to check
    _between_pair_count(sizes)
    payloads = [np.asarray(records[k][2], dtype=float) for k in order]
    first = payloads[0]
    for k, arr in enumerate(payloads):
        if arr.shape != first.shape:
            raise InputShapeError(
                f"payloads have mixed shapes: individual {_owner(sizes, labels, k)!r} "
                f"has {arr.shape}, individual {labels[0]!r} has {first.shape}"
            )
    if payload_kind is None:
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


# Bytes of rows of an n-by-n matrix that _check_values and
# _distance_block_sums hold at a time (a chunk is at least one row, and
# for the block sums one whole block); chunks that stay in cache are fastest.
_BLOCK_SUM_BYTES = 1 << 21


def _check_values(vals):
    """Reject a square matrix that is not a valid dissimilarity matrix.

    Decides and raises exactly as the whole-matrix checks, in order:
    ``np.isfinite(v).all()``, ``(v >= 0).all()``,
    ``np.allclose(v, v.T, atol=tol, rtol=0)`` and
    ``np.allclose(np.diag(v), 0, atol=tol)`` with
    ``tol = 1e-8 * max(abs(v).max(), 1)``, but in one pass over row
    blocks of about ``_BLOCK_SUM_BYTES`` (:func:`~dbicc.distances._chunks`),
    whose temporaries are the size of a block.  Block ``[r0, r1)`` is
    compared with its mirror in rows ``< r1``, which are already known
    to be finite.
    """
    n = vals.shape[0]
    negative = False
    scale = asym = diag = 0.0
    for c in _chunks(n, 8 * n, _BLOCK_SUM_BYTES):
        r0, r1 = c.start, c.stop
        blk = vals[c]
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


def _correlations(sample: GroupedSample):
    """Each time series of the sample as its correlation matrix, in row order.

    A series that cannot be correlated raises its error with the owning
    individual's label in front.
    """
    for k, series in enumerate(sample.values):
        try:
            yield correlation_from_timeseries(series)
        except DbiccError as exc:
            owner = _owner(sample.group_sizes, sample.labels, k)
            raise type(exc)(f"series of individual {owner!r}: {exc}") from None


def _matrices(sample: GroupedSample) -> np.ndarray:
    """The sample's payloads, each time series as its correlation matrix.

    Time series give a new stack; other kinds give the sample's own
    read-only ``values``.
    """
    if sample.payload_kind is not PayloadKind.TIMESERIES:
        return sample.values
    p = sample.feature_dim
    out = np.empty((sample.n_total, p, p))
    for k, r in enumerate(_correlations(sample)):
        out[k] = r
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
    rows = _payload_rows(sample, spec)
    # correlation of correlations is sqrt(1/2) times the Euclidean distance
    # between its rows, standardized to mean 0 and norm 1, which keeps its
    # digits where 1 - r would cancel
    scipy_name = "cityblock" if spec.kind is Metric.L1_VEC else "euclidean"
    vals = squareform(pdist(rows, scipy_name))
    if spec.kind is Metric.CORR_OF_CORR:
        vals *= np.sqrt(0.5)
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
      diagonal.  Sums read off distance rows (by
      :func:`_distance_block_sums`: a :class:`DistanceMatrix`, or ``l1``
      payloads) take this form.
    * ``means``, one row per individual: the group means relative to the
      first payload, scaled so that ``cross[g, h]`` would be
      ``J_g J_h ||means[g] - means[h]||^2 + J_h within[g] / J_g +
      J_g within[h] / J_h`` with ``J = sizes``.  ``l2`` and
      correlation-of-correlations sums from payload rows of p values take
      this I-by-p form, whatever p and the number I of individuals, and
      ``cross`` is ``None``.

    :func:`_between_sum` and :func:`_resampled_sums` read either form.
    ``between`` is the sum over the unordered between-individual pairs
    once known, else None: :func:`block_stats` computes it to check that
    the sums are finite and keeps it, so :func:`_between_sum` returns it
    without a second pass.
    """

    sizes: np.ndarray
    within: np.ndarray
    cross: np.ndarray | None
    means: np.ndarray | None = None
    between: float | None = None


def _distance_block_sums(sizes, distance_rows) -> BlockStats:
    """Block sums of a distance matrix read in row chunks, exactly.

    ``distance_rows(a, b)`` returns rows ``a:b`` of the n-by-n matrix,
    whose rows are grouped by ``sizes``.  Only one chunk exists at a time:
    the whole blocks that fit ``_BLOCK_SUM_BYTES`` of rows
    (:func:`~dbicc.distances._chunk_rows`), or one block.  Every sum adds
    the same values in the same order as ``reduceat`` over the whole
    squared matrix would, so the bits are the same without an n-by-n
    squared copy.
    """
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = bounds[:-1]
    cross = np.empty((sizes.size, sizes.size))
    chunk_rows = _chunk_rows(8 * int(bounds[-1]), _BLOCK_SUM_BYTES)
    g0 = 0
    while g0 < sizes.size:
        limit = bounds[g0] + chunk_rows
        g1 = max(g0 + 1, int(np.searchsorted(bounds, limit, side="right")) - 1)
        rows = distance_rows(bounds[g0], bounds[g1])
        with np.errstate(over="ignore"):  # overflows are infinite sums
            row_sums = np.add.reduceat(rows * rows, starts[g0:g1] - bounds[g0])
        cross[g0:g1] = np.add.reduceat(row_sums, starts, axis=1)
        g0 = g1
    within = np.diag(cross) / 2.0
    return BlockStats(sizes, within, cross)


def _later_row_sums(rows, sizes, starts):
    """Each group's rows after its first, added in row order to a zero row.

    Groups are ``sizes`` rows long and start at rows ``starts``; a group
    of one row sums to zero.  Pass ``j`` adds the ``j``-th row of every
    group that has one, through a strided view when all groups are the
    same size, else gathered from the groups taller than ``j``.  Every
    sum is that of the sparse 0/1 indicator product over the later rows,
    bit for bit, the sign of zero included.
    """
    sums = np.zeros((sizes.size, rows.shape[1]))
    if (sizes == sizes[0]).all():
        by_group = rows.reshape(sizes.size, int(sizes[0]), rows.shape[1])
        for j in range(1, int(sizes[0])):
            sums += by_group[:, j]
    else:
        tallest_first = np.argsort(-sizes, kind="stable")
        taller = sizes.size - np.cumsum(np.bincount(sizes))  # groups of more than j rows
        for j in range(1, int(sizes.max())):
            g = tallest_first[: taller[j]]
            sums[g] += rows[starts[g] + j]
    return sums


def _rows_block_sums(rows, sizes, scale) -> BlockStats:
    """Block sums of ``scale`` times the squared Euclidean row distances.

    ``rows`` holds one row per payload in group order and is overwritten.
    For group ``g`` with ``J`` rows, mean ``m`` and spread
    ``W = sum ||x - m||^2``, the within sum is ``J * W`` and the cross sum
    with group ``h`` is ``J J_h ||m - m_h||^2 + J_h W + J W_h`` (the
    sums-of-squares decomposition behind PERMANOVA).  Each later row is
    first taken relative to its group's first row, which stays as it is,
    and the means relative to the very first row, so a common offset
    cancels exactly and identical payloads give exact zeros.  The result
    holds the I-by-p means of I groups of p-value rows, scaled by
    ``sqrt(scale)``, and no ``cross``.  Besides ``rows`` the temporaries
    are the means and row chunks.
    """
    n, width = rows.shape
    n_groups = sizes.size
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    group = np.repeat(np.arange(n_groups), sizes)
    later = np.ones(n, dtype=bool)
    later[starts] = False
    first = starts[group]
    for c in _chunks(n, 8 * width):
        np.subtract(rows[c], rows[first[c]], out=rows[c], where=later[c, None])
    means = _later_row_sums(rows, sizes, starts)  # of the offsets; a first row's is 0
    means /= sizes[:, None]
    for c in _chunks(n, 8 * width):
        np.subtract(rows[c], means[group[c]], out=rows[c], where=later[c, None])
    squares = np.einsum("ij,ij->i", rows, rows)
    squares[starts] = np.einsum("ij,ij->i", means, means)  # first rows: -mean
    spread = np.bincount(group, weights=squares)
    for c in _chunks(n_groups, 8 * width):
        means[c] += rows[starts[c]] - rows[0]
    if scale != 1.0:
        means *= np.sqrt(scale)
    return BlockStats(sizes, scale * sizes * spread, None, means)


def _two_pass_spread(means, weights):
    """Weighted spread of the means in two passes, one per row of ``weights``.

    Computes ``sum_g w_g ||means[g] - mu_w||^2`` for each row ``w``.  Each
    row's means are taken relative to the means of the first individual
    the row weights, and so is its weighted mean ``mu_w``: a row depends
    on its weights alone, and a row whose weighted means are bitwise equal
    gets exactly 0.  Rows are taken a chunk at a time
    (:func:`~dbicc.distances._chunks`), each holding two temporaries of
    the means' size per row; each row is computed on its own, so the
    chunking does not change the bits.
    """
    out = np.empty(weights.shape[0])
    for c in _chunks(weights.shape[0], 16 * means.size):
        w = weights[c]
        diff = means[None, :, :] - means[np.argmax(w > 0, axis=1), None, :]
        centre = (diff * w[:, :, None]).sum(axis=1) / w.sum(axis=1)[:, None]
        diff -= centre[:, None, :]
        diff *= diff
        out[c] = (diff.sum(axis=2) * w).sum(axis=1)
    return out


def _gram(rows):
    """``rows @ rows.T`` from numpy's own ``einsum`` loop, not a BLAS product.

    A BLAS product's bits can depend on the number of BLAS threads (those
    of 100 rows of 150 values did, between 1 and 2 OpenBLAS threads);
    these do not.  Each row's products with the rows from it on are one
    ``einsum`` and are mirrored below the diagonal, so the loop does half
    the multiplications.
    """
    gram = np.empty((len(rows), len(rows)))
    for a in range(len(rows)):
        gram[a, a:] = np.einsum("ij,j->i", rows[a:], rows[a])
        gram[a:, a] = gram[a, a:]
    return gram


def _resampled_sums(stats: BlockStats, n_rows=1):
    """``c^T cross c`` for resamples, as a function of count rows.

    Returns ``sums(counts, total)``, one value per row ``c`` of
    ``counts``, for calls that take ``n_rows`` rows in all.  A row says
    how often a resample draws each individual, ``total[r]`` is
    ``counts[r] @ sizes``, and ``c^T cross c`` sums the squared distances
    over all ordered pairs of the resample's payloads.  From ``cross`` it
    is the O(I^2) product.  From the means, for ``w = c * sizes`` it is
    ``2 sum(w) (S(w) + c . (within / sizes))``, with ``S(w)`` the
    spread ``sum_g w_g ||means[g] - mu_w||^2`` about the ``w``-weighted
    mean ``mu_w``, in one pass: ``w.q - ||M^T w||^2 / sum(w)`` on the
    I-by-p means ``M`` centred at their ``sizes``-weighted mean, with
    ``q`` their squared norms.  ``||M^T w||^2`` takes O(I*p) per row, or,
    when p > I and ``n_rows`` is at least I, ``w^T G w`` in O(I^2) with
    ``G = M M^T`` built by :func:`_gram` in O(I^2*p).  Rows where the
    subtraction cancels more than half of ``w.q`` are redone by
    :func:`_two_pass_spread`, the two-pass algorithm that Chan, Golub and
    LeVeque (Am. Stat. 37(3), 1983) recommend where the one-pass formula
    cancels; so every row is a function of its counts alone.  Terms of
    the block sums alone are computed here, once for every call.
    """
    sizes, within, cross, means = stats[:4]
    if means is None:
        return lambda counts, total: ((counts @ cross) * counts).sum(axis=1)
    centred = means - (sizes @ means) / sizes.sum()
    norms = np.einsum("ij,ij->i", centred, centred)
    centred *= sizes[:, None]
    weighted_norms = sizes * norms
    per_payload = within / sizes
    wide = means.shape[1] > sizes.size and n_rows >= sizes.size
    gram = _gram(centred) if wide else None

    def sums(counts, total):
        if gram is None:
            proj = counts @ centred
            projected = np.einsum("ij,ij->i", proj, proj)
        else:
            projected = np.einsum("ij,ij->i", counts @ gram, counts)
        weighted = counts @ weighted_norms
        spread = weighted - projected / total
        redo = np.flatnonzero(spread < 0.5 * weighted)
        if redo.size:
            spread[redo] = _two_pass_spread(means, counts[redo] * sizes)
        spread += counts @ per_payload
        return 2.0 * total * spread

    return sums


def _between_sum(stats: BlockStats):
    """Sum of the squared distances over the unordered between-individual pairs.

    From ``cross``, half its off-diagonal sum.  From the means, the
    resample that draws every individual once: half of ``c^T cross c``
    less its diagonal, for ``c`` all ones, which is
    ``N S(J) + sum_g W_g (N - J_g)`` with ``W = within / sizes``, ``N``
    the payload count and ``S(J)`` the ``sizes``-weighted spread of the
    means.  Bitwise-equal means and zero ``within`` give exactly 0.  A
    sum the block sums already hold (``stats.between``) is returned as is.
    """
    if stats.between is not None:
        return stats.between
    sizes, within, cross, means = stats[:4]
    if means is None:
        off_diagonal = ~np.eye(sizes.size, dtype=bool)
        return np.sum(cross, where=off_diagonal) / 2.0
    ones = np.ones((1, sizes.size))
    quad = _resampled_sums(stats)(ones, ones @ sizes)
    return (quad[0] - ones[0] @ (2.0 * within)) / 2.0


def _payload_block_stats(rows, metric: Metric, sizes, weight=1.0) -> BlockStats:
    """Block sums of the distances between metric rows (from :func:`_metric_rows`).

    Each value of an ``l1`` or ``l2`` row stands for ``weight`` equal
    entries of its payload: ``l1`` distances are ``weight`` times those
    of the rows, ``l2`` squared distances too.  ``l1`` reads ``cdist``
    row chunks, each equal bit for bit to those rows of the distance
    matrix at weight 1 (doubling is exact too).  ``l2`` and correlation
    of correlations overwrite ``rows``; the latter's rows are
    standardized, so it is ``l2`` on them at half scale.  Raises
    :class:`NonFiniteError` where the distance matrix would hold NaN or
    Inf, or its squares overflow.  The between sum this check takes is
    kept in the result's ``between``.
    """

    def distance_rows(a, b):
        chunk = cdist(rows[a:b], rows, "cityblock")
        if weight != 1.0:
            chunk *= weight
        return chunk

    # overflow and underflow show up as a non-finite total, checked below
    with np.errstate(all="ignore"):
        if metric is Metric.L1_VEC:
            stats = _distance_block_sums(sizes, distance_rows)
        else:
            scale = 0.5 if metric is Metric.CORR_OF_CORR else weight
            stats = _rows_block_sums(rows, sizes, scale)
        between = _between_sum(stats)
        # the sum over all ordered pairs, diagonal blocks included
        total = 2.0 * (between + np.sum(stats.within))
    _require_finite(total)
    return stats._replace(between=between)


class _MatrixColumns:
    """The column pipeline: a matrix stack's columns, thresholded level by level.

    Built once per stack from a sample of matrix or time-series payloads
    (series become their correlation matrices; vector payloads raise
    :class:`MetricMismatchError`, and 2x2 matrices under correlation of
    correlations :class:`DegenerateInputError`), for ``metric``.  A
    column holds one entry of every payload.  When every matrix is
    exactly symmetric and all share one diagonal, the column set is the
    strict lower triangle, each column standing for itself and its mirror
    image (``weight`` 2).  Any other stack keeps every entry (``weight``
    1), and its diagonal entries are never thresholded.

    :meth:`rows` soft-thresholds the set at one level into the buffer of
    one :class:`~dbicc.distances._Workspace`, reused across levels, and
    :meth:`block_stats` takes the block sums of its result.  ``l1`` and
    ``l2`` compare only the live columns: those that vary across payloads
    and, off the diagonal, whose largest magnitude exceeds the level, in
    their original order.  The columns
    left out are equal in every payload, so the distances are those of
    the whole matrices up to rounding.  Correlation of correlations
    compares every column of the lower triangle, so its rows are those
    of :func:`_metric_rows` after :func:`~dbicc.distances.soft_threshold`,
    and so are its outputs.
    """

    def __init__(self, sample: GroupedSample, metric: Metric):
        _require_matrix_payloads(sample)
        n, p = sample.n_total, sample.feature_dim
        lower = np.flatnonzero(np.tri(p, k=-1, dtype=bool))
        if sample.payload_kind is PayloadKind.TIMESERIES:
            # correlation matrices are symmetric with a unit diagonal
            mirrored = True
            self.values = np.empty((n, lower.size))
            for k, r in enumerate(_correlations(sample)):
                np.take(r, lower, out=self.values[k], mode="clip")
        else:
            mats = sample.values
            diagonal = np.diagonal(mats, axis1=1, axis2=2)
            mirrored = bool((diagonal == diagonal[0]).all()) and np.array_equal(
                mats, mats.transpose(0, 2, 1)
            )
            flat = mats.reshape(n, p * p)
            self.values = np.take(flat, lower, axis=1) if mirrored else flat
        # once, before any level, and after the correlations as on the
        # matrix path, where soft_threshold refuses a 1x1 stack first (here
        # rows() does)
        if metric is Metric.CORR_OF_CORR and p == 2:
            raise DegenerateInputError(
                "correlation-of-correlations needs matrices of size 3x3 or larger"
            )
        if mirrored:
            self.off_diagonal = np.ones(lower.size, dtype=bool)
            self.lower = None  # every column
        else:
            self.off_diagonal = ~np.eye(p, dtype=bool).ravel()
            self.lower = lower
        self.weight = 2.0 if mirrored else 1.0
        high, low = self.values.max(axis=0), self.values.min(axis=0)
        self.peak = np.maximum(high, -low)
        self.varies = high != low
        self.metric, self.p, self.sizes = metric, p, sample.group_sizes
        self.workspace = _Workspace()

    def rows(self, level=None):
        """The stack's rows at soft-threshold ``level``, and their zero fractions.

        Returns the rows, which the next call may overwrite (the lower
        triangles for correlation of correlations), and, for a level,
        each payload's fraction of off-diagonal entries that are exactly
        zero after thresholding, as :func:`~dbicc.distances.soft_threshold`
        counts them.  No level takes level 0's columns, unthresholded,
        and no fractions.
        """
        if level is not None and self.p < 2:
            raise DegenerateInputError("a 1x1 matrix has no off-diagonal entries")
        t = 0.0 if level is None else level
        n, width = self.values.shape
        cut = self.off_diagonal & (self.peak <= t)  # zero in every payload
        corr = self.metric is Metric.CORR_OF_CORR
        if not corr:
            keep = np.flatnonzero(self.varies & ~cut)
        elif level is None and self.lower is not None:
            keep = self.lower  # no zeros to count beyond the triangle
        else:
            keep = np.arange(width)
        rows = self.workspace.array((n, keep.size))
        diagonal = np.flatnonzero(~self.off_diagonal[keep])
        # every index is in range; mode "clip" lets take write straight to out
        if t == 0.0:  # the shrink would change no bit but the sign of zero
            np.take(self.values, keep, axis=1, out=rows, mode="clip")
        else:
            scratch = np.empty((min(n, _chunk_rows(8 * keep.size)), keep.size))
            for c in _chunks(n, 8 * keep.size):
                part = scratch[: len(rows[c])]
                np.take(self.values[c], keep, axis=1, out=part, mode="clip")
                _shrink(part, t, out=rows[c])
            rows[:, diagonal] = self.values[:, keep[diagonal]]
        if level is None:
            return rows, None
        zeros = np.count_nonzero(rows == 0.0, axis=1)
        zeros -= np.count_nonzero(rows[:, diagonal] == 0.0, axis=1)
        zeros += np.count_nonzero(cut) - np.count_nonzero(cut[keep])
        if corr and self.lower is not None:  # counted on every entry, compared below
            rows = np.take(rows, self.lower, axis=1)
        return rows, self.weight * zeros / (self.p * (self.p - 1))

    def block_stats(self, rows) -> BlockStats:
        """Block sums of the distances between the payloads that ``rows`` hold.

        ``rows`` comes from :meth:`rows` and is overwritten.
        """
        if self.metric is Metric.CORR_OF_CORR:
            return _payload_block_stats(_standardized(rows), self.metric, self.sizes)
        return _payload_block_stats(rows, self.metric, self.sizes, self.weight)


def block_stats(sample: GroupedSample, metric) -> BlockStats:
    """Block sums of the squared distances of a sample, under any metric.

    The payload pipeline is that of :func:`compute_distance_matrix`, and
    the sums equal those of its distance matrix, but no n-by-n matrix is
    built.  Matrix and series payloads go through the column pipeline
    (:class:`_MatrixColumns`), so ``l1`` and ``l2`` compare only the
    columns that differ between payloads, and a symmetric stack only its
    lower triangle, at double weight.  For n payloads of p compared
    values and I individuals:

    * ``l1`` reads the distance matrix in row chunks of about 2 MiB and
      keeps the I-by-I ``cross``, in O(n^2*p) time and O(n*p + I^2)
      memory beyond the chunk.  On vector payloads it equals that of
      the matrix bit for bit.
    * ``l2`` and correlation of correlations, equal up to rounding, keep
      the I-by-p means (see :class:`BlockStats`), in O(n*p) time and
      memory.

    Parameters
    ----------
    sample : GroupedSample
    metric : DistanceSpec, Metric, or str
    """
    spec = metric if isinstance(metric, DistanceSpec) else DistanceSpec(kind=metric)
    if sample.payload_kind is PayloadKind.VECTOR:
        rows = _payload_rows(sample, spec)
        return _payload_block_stats(rows, spec.kind, sample.group_sizes)
    columns = _MatrixColumns(sample, spec.kind)
    return columns.block_stats(columns.rows(spec.threshold)[0])
