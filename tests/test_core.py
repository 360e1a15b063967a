import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from dbicc import core
from dbicc import (
    DistanceMatrix,
    DistanceSpec,
    GroupedSample,
    InputShapeError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    Metric,
    MetricMismatchError,
    NonFiniteError,
    PayloadKind,
    block_stats,
    bootstrap_dbicc,
    build_grouped_sample,
    compute_distance_matrix,
    corr_of_corr_distance,
    correlation_from_timeseries,
    dbicc_point,
    l1_distance,
    l2_distance,
)
from conftest import rand_corr, vector_sample


def hand_rows():
    return [
        ("A", 0, [0.0, 0.0]),
        ("A", 1, [1.0, 1.0]),
        ("B", 0, [2.0, 0.0]),
        ("B", 1, [0.0, 2.0]),
    ]


class TestBuildGroupedSample:
    def test_basic_construction(self):
        s = build_grouped_sample(hand_rows())
        assert s.n_individuals == 2
        assert s.labels == ("A", "B")
        assert s.group_sizes.tolist() == [2, 2]
        assert s.payload_kind is PayloadKind.VECTOR
        assert s.feature_dim == 2
        assert s.n_total == 4

    def test_ordering(self):
        # individuals by first appearance, replicates by replicate id
        rows = [
            ("B", 2, [1.0]),
            ("A", 9, [2.0]),
            ("B", 1, [3.0]),
            ("A", 5, [4.0]),
        ]
        s = build_grouped_sample(rows)
        assert s.labels == ("B", "A")
        assert s.values[0][0] == 3.0  # B's replicate 1 first
        assert s.values[2][0] == 4.0  # A's replicate 5 first

    def test_single_individual(self):
        with pytest.raises(InsufficientGroupsError):
            build_grouped_sample([("A", 0, [1.0]), ("A", 1, [2.0])])

    @pytest.mark.parametrize(
        "kind, shape, error",
        [
            (PayloadKind.VECTOR, (2, 2), "vector payloads must be 1-D, got shape (2, 2)"),
            (PayloadKind.MATRIX, (3,), "matrix payloads must be 2-D, got shape (3,)"),
            (PayloadKind.MATRIX, (2, 3), "matrix payloads must be square, got shape (2, 3)"),
        ],
    )
    def test_payload_dimension_fits_its_kind(self, kind, shape, error):
        with pytest.raises(InputShapeError, match=re.escape(error)):
            GroupedSample(
                values=np.ones((4, *shape)), group_sizes=[2, 2], labels=("A", "B"),
                payload_kind=kind,
            )

    def test_three_dimensional_payloads_need_a_kind(self):
        rows = [(ind, rep, np.ones((2, 2, 2))) for ind in "AB" for rep in (0, 1)]
        with pytest.raises(InputShapeError, match=re.escape("from shape (2, 2, 2)")):
            build_grouped_sample(rows)

    def test_mixed_dimensions(self):
        rows = [("A", 0, [1.0, 2.0]), ("A", 1, [1.0]), ("B", 0, [3.0, 4.0])]
        with pytest.raises(InputShapeError):
            build_grouped_sample(rows)

    def test_mixed_shapes_name_the_first_individual_that_differs(self):
        # in group order B's replicate 0 comes before its replicate 1
        rows = [("A", 0, [1.0, 2.0]), ("B", 1, [1.0]), ("B", 0, [3.0, 4.0]),
                ("C", 0, [5.0])]
        with pytest.raises(InputShapeError) as info:
            build_grouped_sample(rows)
        assert str(info.value) == (
            "payloads have mixed shapes: individual 'B' has (1,), individual 'A' has (2,)"
        )

    def test_nan_payload(self):
        rows = [("A", 0, [1.0, np.nan]), ("B", 0, [3.0, 4.0]), ("B", 1, [1.0, 0.0])]
        with pytest.raises(NonFiniteError):
            build_grouped_sample(rows)

    def test_non_finite_error_names_the_first_individual_at_fault(self):
        rows = [("A", 0, [1.0, 2.0]), ("A", 1, [0.0, 1.0]), ("B", 0, [3.0, 4.0]),
                ("B", 1, [np.nan, 0.0]), ("C", 0, [np.inf, 0.0])]
        with pytest.raises(NonFiniteError, match="individual 'B'"):
            build_grouped_sample(rows)

    def test_fields_must_agree(self):
        # samples and distance matrices share one grouping check
        builders = (
            lambda sizes, labels: GroupedSample(
                np.zeros((3, 2)), sizes, labels, PayloadKind.VECTOR
            ),
            lambda sizes, labels: DistanceMatrix(np.zeros((3, 3)), sizes, labels),
        )
        for build in builders:
            with pytest.raises(InputShapeError, match="one label per individual"):
                build([2, 1], ("a",))
            with pytest.raises(InputShapeError, match="need 4 rows, got 3"):
                build([2, 2], ("a", "b"))
            with pytest.raises(InputShapeError, match="'b' has no replicates"):
                build([3, 0], ("a", "b"))
            with pytest.raises(InputShapeError, match="sizes must be 1-D"):
                build([[2, 1]], ("a", "b"))
        with pytest.raises(InputShapeError, match="individual 1 has no replicates"):
            DistanceMatrix(np.zeros((3, 3)), [3, 0])
        with pytest.raises(InputShapeError, match="one label per individual"):
            GroupedSample(np.zeros((3, 2)), [2, 1], (), PayloadKind.VECTOR)

    @pytest.mark.parametrize("kind", ["matrix", "timeseries"])
    def test_values_are_read_only_and_left_unchanged(self, rng, kind):
        given = rng.standard_normal((6, 4, 4))
        sample = GroupedSample(given, [2, 3, 1], ("a", "b", "c"), kind)
        assert given.flags.writeable  # the caller's array keeps its flags
        with pytest.raises(ValueError):
            sample.values[0, 0, 0] = 1.0
        before = sample.values.copy()
        for spec in (Metric.L2_VEC, Metric.CORR_OF_CORR,
                     DistanceSpec(kind=Metric.L2_VEC, threshold=0.2)):
            stats = block_stats(sample, spec)
            dbicc_point(stats)
            bootstrap_dbicc(stats, 100, seed=1)
            dbicc_point(compute_distance_matrix(sample, spec))
        assert np.array_equal(sample.values, before)

    def test_no_repeated_individual(self):
        with pytest.raises(InsufficientReplicatesError):
            build_grouped_sample([("A", 0, [1.0]), ("B", 0, [2.0])])

    def test_matrix_kind_inferred(self, rng):
        rows = [
            ("A", 0, rng.standard_normal((3, 3))),
            ("A", 1, rng.standard_normal((3, 3))),
            ("B", 0, rng.standard_normal((3, 3))),
        ]
        s = build_grouped_sample(rows)
        assert s.payload_kind is PayloadKind.MATRIX


class TestComputeDistanceMatrix:
    def test_identical_payloads(self):
        rows = [("A", 0, [1.0, 2.0]), ("A", 1, [1.0, 2.0]), ("B", 0, [1.0, 2.0])]
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        assert np.all(dm.values == 0.0)

    def test_scalar_l2(self):
        rows = [("A", 0, [0.0]), ("A", 1, [2.0]), ("B", 0, [0.0])]
        dm = compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
        assert dm.values[0, 1] == 2.0

    def test_entries_match_scalar_calls_exactly(self, rng):
        s = vector_sample(rng, [2, 1, 1], 7)
        payloads = s.values
        for metric, fn in ((Metric.L2_VEC, l2_distance), (Metric.L1_VEC, l1_distance)):
            dm = compute_distance_matrix(s, metric)
            for a in range(4):
                for b in range(4):
                    if a != b:
                        assert dm.values[a, b] == fn(payloads[a], payloads[b])

    def test_corr_metric_matches_scalar_calls_exactly(self, rng):
        rows = [
            ("A", 0, rand_corr(rng, 4)),
            ("A", 1, rand_corr(rng, 4)),
            ("B", 0, rand_corr(rng, 4)),
        ]
        s = build_grouped_sample(rows, payload_kind=PayloadKind.MATRIX)
        dm = compute_distance_matrix(s, Metric.CORR_OF_CORR)
        payloads = s.values
        for a in range(3):
            for b in range(a + 1, 3):
                assert dm.values[a, b] == corr_of_corr_distance(
                    payloads[a], payloads[b]
                )

    @pytest.mark.parametrize("metric", list(Metric))
    def test_symmetric_zero_diagonal(self, metric, rng):
        for _ in range(5):
            if metric is Metric.CORR_OF_CORR:
                rows = [
                    ("A", 0, rand_corr(rng, 4)),
                    ("A", 1, rand_corr(rng, 4)),
                    ("B", 0, rand_corr(rng, 4)),
                    ("B", 1, rand_corr(rng, 4)),
                ]
                s = build_grouped_sample(rows, payload_kind=PayloadKind.MATRIX)
            else:
                s = vector_sample(rng, [2, 2], 5)
            dm = compute_distance_matrix(s, metric)
            assert np.array_equal(dm.values, dm.values.T)
            assert np.all(np.diag(dm.values) == 0.0)
            assert np.all(dm.values >= 0.0)

    def test_relabeling_permutes_matrix(self, rng):
        payloads = {name: rng.standard_normal((2, 3)) for name in "AB"}
        rows1 = [(n, j, payloads[n][j]) for n in "AB" for j in range(2)]
        rows2 = [(n, j, payloads[n][j]) for n in "BA" for j in range(2)]
        d1 = compute_distance_matrix(build_grouped_sample(rows1), Metric.L2_VEC)
        d2 = compute_distance_matrix(build_grouped_sample(rows2), Metric.L2_VEC)
        perm = np.array([2, 3, 0, 1])  # B-block first in rows2
        assert np.array_equal(d2.values, d1.values[np.ix_(perm, perm)])

    def test_corr_metric_on_vectors_rejected(self, rng):
        s = vector_sample(rng, [2, 2], 5)
        with pytest.raises(MetricMismatchError):
            compute_distance_matrix(s, Metric.CORR_OF_CORR)

    def test_threshold_on_vectors_rejected(self, rng):
        s = vector_sample(rng, [2, 2], 5)
        spec = DistanceSpec(kind=Metric.L2_VEC, threshold=0.1)
        with pytest.raises(MetricMismatchError):
            compute_distance_matrix(s, spec)

    def test_timeseries_payloads_go_through_correlation(self, rng):
        series = {
            ("A", 0): rng.standard_normal((30, 4)),
            ("A", 1): rng.standard_normal((30, 4)),
            ("B", 0): rng.standard_normal((30, 4)),
        }
        ts_rows = [(i, j, x) for (i, j), x in series.items()]
        ts_sample = build_grouped_sample(ts_rows, payload_kind=PayloadKind.TIMESERIES)
        mat_rows = [
            (i, j, correlation_from_timeseries(x)) for (i, j), x in series.items()
        ]
        mat_sample = build_grouped_sample(mat_rows, payload_kind=PayloadKind.MATRIX)
        spec = DistanceSpec(kind=Metric.CORR_OF_CORR, threshold=0.05)
        d_ts = compute_distance_matrix(ts_sample, spec)
        d_mat = compute_distance_matrix(mat_sample, spec)
        assert np.array_equal(d_ts.values, d_mat.values)


class TestDistanceMatrixValidation:
    def test_asymmetric_rejected(self):
        vals = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputShapeError):
            DistanceMatrix(values=vals, group_sizes=[1, 1])

    def test_negative_rejected(self):
        vals = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InputShapeError):
            DistanceMatrix(values=vals, group_sizes=[1, 1])

    def test_nonzero_diagonal_rejected(self):
        vals = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(InputShapeError):
            DistanceMatrix(values=vals, group_sizes=[1, 1])

    def test_scalar_values_rejected(self):
        with pytest.raises(InputShapeError, match="must be square"):
            DistanceMatrix(np.float64(1.0), [1])

    def test_nan_rejected(self):
        vals = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(NonFiniteError):
            DistanceMatrix(values=vals, group_sizes=[1, 1])


def allclose_verdict(vals):
    """The whole-matrix validation formulas the blocked pass must agree with."""
    if not np.all(np.isfinite(vals)):
        return NonFiniteError, "distance matrix contains NaN or Inf"
    if np.any(vals < 0.0):
        return InputShapeError, "distances must be nonnegative"
    tol = 1e-8 * max(np.abs(vals).max(), 1.0)
    if not np.allclose(vals, vals.T, atol=tol, rtol=0.0):
        return InputShapeError, "distance matrix is not symmetric"
    if not np.allclose(np.diag(vals), 0.0, atol=tol):
        return InputShapeError, "distance matrix diagonal must be zero"
    return None


class TestBlockedValidation:
    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 11),
        block_rows=st.sampled_from([1, 3, 4, 256]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e7]),
        defect=st.sampled_from(
            ["none", "asym", "nan", "inf", "-inf", "negative", "diag", "two"]
        ),
        factor=st.sampled_from([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 1e3]),
        pos=st.lists(st.integers(0, 10), min_size=4, max_size=4),
    )
    def test_same_verdict_as_whole_matrix_checks(
        self, n, block_rows, seed, scale, defect, factor, pos
    ):
        rng = np.random.default_rng(seed)
        vals = squareform(pdist(scale * rng.standard_normal((n, 2))))
        i, j, k, m = (p % n for p in pos)
        tol = 1e-8 * max(vals.max(), 1.0)
        bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
        if defect == "asym":
            vals[i, j] += factor * tol
        elif defect in bad:
            vals[i, j] = bad[defect]
        elif defect == "negative":
            vals[i, j] = vals[j, i] = -factor * tol
        elif defect == "diag":
            vals[i, i] = factor * tol
        elif defect == "two":  # a later defect must not mask an earlier check
            vals[i, j] = -factor * tol
            vals[k, m] = np.nan if factor > 1.0 else vals[k, m] + factor * tol
        with mock.patch.object(core, "_BLOCK_SUM_BYTES", 8 * n * block_rows):
            try:
                DistanceMatrix(values=vals, group_sizes=np.ones(n, dtype=np.int64))
                verdict = None
            except (NonFiniteError, InputShapeError) as exc:
                verdict = (type(exc), str(exc))
        assert verdict == allclose_verdict(vals)

    def test_peak_memory_below_one_matrix(self):
        n = 2000
        vals = squareform(pdist(np.random.default_rng(3).standard_normal((n, 3))))
        tracemalloc.start()
        try:
            DistanceMatrix(values=vals, group_sizes=np.full(n // 2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vals.nbytes
