"""Grouped repeated-measures data and grouped distance matrices.

A :class:`GroupedSample` holds the observations of several individuals,
each measured one or more times; payloads may be vectors, square
matrices, or multivariate time series, but all payloads in a sample must
share one shape.  :func:`compute_distance_matrix` turns a sample into a
:class:`DistanceMatrix`, the object every estimator in this package
consumes.

Rows of a distance matrix follow (individual, replicate) order:
individuals in order of first appearance, replicates in their stated
order within each individual.  All types are immutable after
construction and safe to share across workers.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
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
    "build_grouped_sample",
    "compute_distance_matrix",
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
    return payloads, kind


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
    payloads, kind = _payloads_for_metric(sample, spec)

    if spec.kind in (Metric.L2_VEC, Metric.L1_VEC):
        flat = np.vstack([np.asarray(p, dtype=float).ravel() for p in payloads])
        scipy_name = "euclidean" if spec.kind is Metric.L2_VEC else "cityblock"
        vals = squareform(pdist(flat, scipy_name))
    else:
        p = payloads[0].shape[0]
        if p < 3:
            raise DegenerateInputError(
                "correlation-of-correlations needs matrices of size 3x3 or larger"
            )
        rows, cols = np.tril_indices(p, k=-1)
        tri = np.vstack([np.asarray(m, dtype=float)[rows, cols] for m in payloads])
        flat_ptp = tri.max(axis=1) - tri.min(axis=1)
        if np.any(flat_ptp == 0.0):
            bad = int(np.flatnonzero(flat_ptp == 0.0)[0])
            raise DegenerateInputError(
                f"payload {bad} has a constant lower triangle; "
                "correlation of correlations is undefined"
            )
        vals = np.sqrt(np.maximum(squareform(pdist(tri, "correlation")), 0.0))

    np.fill_diagonal(vals, 0.0)
    groups = sample.groups()
    return DistanceMatrix(
        values=vals,
        individual_index=np.array([g[0] for g in groups], dtype=np.int64),
        replicate_index=np.array([g[1] for g in groups], dtype=np.int64),
        labels=sample.labels,
    )
