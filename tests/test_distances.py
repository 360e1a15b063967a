import tracemalloc

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import given, settings
from hypothesis import strategies as st

import dbicc.distances
from dbicc import (
    DegenerateInputError,
    DistanceSpec,
    GroupedSample,
    InputShapeError,
    InsufficientDataError,
    Metric,
    NonFiniteError,
    ParameterError,
    PayloadKind,
    block_stats,
    corr_of_corr_distance,
    correlation_from_timeseries,
    l1_distance,
    l2_distance,
    soft_threshold,
)
from conftest import rand_corr


class TestVectorDistances:
    def test_l2_identical(self):
        v = np.array([1.0, -2.0, 3.0])
        assert l2_distance(v, v) == 0.0

    def test_l2_pythagorean(self):
        assert l2_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_l2_matches_elementwise_oracle(self, rng):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        expected = np.sqrt(np.sum((a - b) ** 2))
        assert l2_distance(a, b) == pytest.approx(expected, rel=1e-14)

    def test_l1_identical(self):
        v = np.array([1.0, 2.0])
        assert l1_distance(v, v) == 0.0

    def test_l1_sum_of_abs(self):
        assert l1_distance([0.0, 0.0], [3.0, 4.0]) == 7.0

    def test_l1_matches_elementwise_oracle(self, rng):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert l1_distance(a, b) == pytest.approx(np.abs(a - b).sum(), rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(InputShapeError):
            l2_distance([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InputShapeError):
            l1_distance([1.0], [1.0, 2.0])

    def test_matrix_arguments_use_frobenius(self, rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        assert l2_distance(a, b) == pytest.approx(
            np.linalg.norm(a - b, "fro"), rel=1e-14
        )

    @pytest.mark.parametrize("fn", [l2_distance, l1_distance])
    def test_symmetry_nonnegativity_triangle(self, fn, rng):
        for _ in range(25):
            a, b, c = (rng.standard_normal(6) for _ in range(3))
            assert fn(a, b) == fn(b, a)
            assert fn(a, b) >= 0.0
            assert fn(a, c) <= fn(a, b) + fn(b, c) + 1e-12


def _pearson(u, v):
    uc, vc = u - u.mean(), v - v.mean()
    return float(np.sum(uc * vc) / np.sqrt(np.sum(uc * uc) * np.sum(vc * vc)))


class TestCorrOfCorr:
    def test_identical_matrices(self, rng):
        r = rand_corr(rng, 4)
        assert corr_of_corr_distance(r, r) == pytest.approx(0.0, abs=1e-7)

    def test_negated_triangles(self, rng):
        r1 = rand_corr(rng, 4)
        r2 = -r1
        np.fill_diagonal(r2, 1.0)
        assert corr_of_corr_distance(r1, r2) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_matches_pearson_oracle(self, rng):
        r1, r2 = rand_corr(rng, 4), rand_corr(rng, 4)
        rows, cols = np.tril_indices(4, k=-1)
        r = _pearson(r1[rows, cols], r2[rows, cols])
        assert corr_of_corr_distance(r1, r2) == pytest.approx(
            np.sqrt(1.0 - r), rel=1e-12
        )

    def test_too_small(self):
        r = np.array([[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(DegenerateInputError):
            corr_of_corr_distance(r, r)

    @pytest.mark.parametrize("shape", [(3, 4), (6,), (2, 3, 3)])
    def test_needs_square_matrices(self, shape):
        m = np.arange(float(np.prod(shape))).reshape(shape)
        message = "^corr_of_corr_distance needs square matrices, got shape "
        message += rf"\({shape[0]},"
        with pytest.raises(InputShapeError, match=message):
            corr_of_corr_distance(m, m)

    def test_constant_triangle(self):
        # an equicorrelation matrix has zero variance below the diagonal
        r1 = np.full((3, 3), 0.5)
        np.fill_diagonal(r1, 1.0)
        r2 = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.1], [0.4, 0.1, 1.0]])
        with pytest.raises(DegenerateInputError):
            corr_of_corr_distance(r1, r2)

    def test_range_and_symmetry(self, rng):
        for _ in range(25):
            r1, r2 = rand_corr(rng, 5), rand_corr(rng, 5)
            d = corr_of_corr_distance(r1, r2)
            assert 0.0 <= d <= np.sqrt(2.0) + 1e-12
            assert d == corr_of_corr_distance(r2, r1)


class TestCorrelationFromTimeseries:
    def test_identical_columns(self, rng):
        col = rng.standard_normal(20)
        x = np.column_stack([col, col, rng.standard_normal(20)])
        r = correlation_from_timeseries(x)
        assert r[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self, rng):
        col = rng.standard_normal(20)
        x = np.column_stack([col, -col, rng.standard_normal(20)])
        assert correlation_from_timeseries(x)[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_pairwise_pearson(self, rng):
        x = rng.standard_normal((20, 3))
        r = correlation_from_timeseries(x)
        for i in range(3):
            for j in range(3):
                assert r[i, j] == pytest.approx(_pearson(x[:, i], x[:, j]), abs=1e-12)

    def test_output_shape_and_bounds(self, rng):
        r = correlation_from_timeseries(rng.standard_normal((30, 5)))
        assert r.shape == (5, 5)
        assert np.allclose(r, r.T)
        assert np.all(np.diag(r) == 1.0)
        assert np.all(np.abs(r) <= 1.0)
        # usable downstream by the correlation-of-correlations metric
        corr_of_corr_distance(r, rand_corr(rng, 5))

    def test_constant_column(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DegenerateInputError):
            correlation_from_timeseries(x)

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 0.7, 1e-3])
    def test_constant_column_whose_std_is_a_rounding_residue(self, rng, value):
        x = rng.standard_normal((197, 4))
        x[:, 2] = value
        assert x[:, 2].std() > 0.0
        with pytest.raises(DegenerateInputError, match="^column 2 is constant; "):
            correlation_from_timeseries(x)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 60),
        p=st.integers(1, 12),
        collinear=st.integers(0, 4),
        noise=st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_symmetric_bit_for_bit(self, n, p, collinear, noise, seed):
        # near-collinear columns: a scaled copy of another column plus noise
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
        for _ in range(collinear if p > 1 else 0):
            a, b = rng.choice(p, size=2, replace=False)
            x[:, a] = rng.uniform(-3.0, 3.0) * x[:, b] + noise * rng.standard_normal(n)
        if np.any(x.max(axis=0) == x.min(axis=0)):
            return  # a constant column has no correlation
        r = correlation_from_timeseries(x)
        assert r.tobytes() == np.ascontiguousarray(r.T).tobytes()
        assert np.all(np.diagonal(r) == 1.0)
        # the lower triangle is corrcoef's, clipped, as before the mirroring
        want = np.clip(np.atleast_2d(np.corrcoef(x, rowvar=False)), -1.0, 1.0)
        lower = np.tri(p, k=-1, dtype=bool)
        assert r[lower].tobytes() == want[lower].tobytes()

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_series_must_be_2d(self, shape):
        with pytest.raises(
            InputShapeError,
            match=r"^time series must be 2-D \(time x channels\), got shape",
        ):
            correlation_from_timeseries(np.arange(float(np.prod(shape))).reshape(shape))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            correlation_from_timeseries(np.ones((2, 3)) + np.eye(2, 3))


class TestSoftThreshold:
    def test_zero_level_is_identity(self):
        r = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -0.2], [0.0, -0.2, 1.0]])
        out, frac = soft_threshold(r, 0.0)
        assert np.array_equal(out, r)
        assert frac == pytest.approx(2.0 / 6.0)  # only the pre-existing zeros

    def test_shrinks_entry(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        out, _ = soft_threshold(r, 0.2)
        assert out[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_saturation(self, rng):
        r = rand_corr(rng, 4)
        level = np.abs(r - np.eye(4)).max()
        out, frac = soft_threshold(r, level)
        assert frac == 1.0
        assert np.all(out[~np.eye(4, dtype=bool)] == 0.0)

    def test_bad_level(self):
        r = np.eye(3)
        for level in (-0.1, 1.5):
            with pytest.raises(ParameterError):
                soft_threshold(r, level)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (4,), (2, 2, 3, 3)])
    def test_needs_square_matrices(self, shape):
        with pytest.raises(
            InputShapeError,
            match=r"^expected a square matrix or a stack of them, got shape",
        ):
            soft_threshold(np.zeros(shape), 0.1)

    def test_fraction_monotone_and_contractive(self, rng):
        r = rand_corr(rng, 6)
        prev = -1.0
        for level in np.linspace(0.0, 1.0, 11):
            out, frac = soft_threshold(r, level)
            assert frac >= prev
            assert np.all(np.abs(out) <= np.abs(r) + 1e-15)
            prev = frac

    def test_semigroup(self, rng):
        r = rand_corr(rng, 5)
        lam1, lam2 = 0.15, 0.25
        once, _ = soft_threshold(r, lam1 + lam2)
        twice, _ = soft_threshold(soft_threshold(r, lam1)[0], lam2)
        assert np.allclose(once, twice, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        p=st.integers(2, 6),
        level=st.sampled_from([0.0, 1.0, 0.25]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_per_matrix_calls_bitwise(self, n, p, level, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(-1.0, 1.0, (n, p, p))
        # signed zeros, entries exactly at +-level, and the ends of [-1, 1]
        special = np.array([0.0, -0.0, level, -level, 1.0, -1.0])
        pick = rng.random(r.shape) < 0.4
        r[pick] = rng.choice(special, size=int(pick.sum()))
        singles = [soft_threshold(m, level) for m in r]
        # today's formula, matrix by matrix
        want = np.sign(r) * np.maximum(np.abs(r) - level, 0.0)
        diag = np.arange(p)
        want[:, diag, diag] = r[:, diag, diag]
        stacked, fractions = soft_threshold(r, level)
        assert stacked.tobytes() == want.tobytes()
        assert stacked.tobytes() == np.stack([m for m, _ in singles]).tobytes()
        assert fractions.tolist() == [f for _, f in singles]

    def test_a_stack_needs_no_temporary_larger_than_one_matrix(self):
        n, p = 40, 60
        r = np.random.default_rng(2).uniform(-1.0, 1.0, (n, p, p))
        tracemalloc.start()
        try:
            out, _ = soft_threshold(r, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and a few p x p temporaries; a pass over the whole
        # stack at once would add another stack of n matrices
        assert peak < out.nbytes + 4 * p * p * 8


class TestDistanceSpec:
    def test_threshold_range(self):
        with pytest.raises(ParameterError):
            DistanceSpec(kind="l2_vec", threshold=1.2)

    def test_kind_coercion(self):
        spec = DistanceSpec(kind="corr_of_corr")
        assert spec.kind.value == "corr_of_corr"
        with pytest.raises(ValueError):
            DistanceSpec(kind="nope")


class TestScipyWrappers:
    """dbicc.distances' kernel wrappers return scipy's results as they are."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_squareform_is_scipys_bit_for_bit(self, rng, n):
        condensed = rng.standard_normal(n * (n - 1) // 2)
        condensed[::3] = -0.0
        got = dbicc.distances.squareform(condensed)
        want = scipy.spatial.distance.squareform(condensed)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, n)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_overflowing_means_raise_non_finite(rng, kind):
    # replicates of one individual are equal, so only the means overflow
    payloads = 1e200 * rng.standard_normal((3, 9))
    values = np.repeat(payloads, 2, axis=0)
    if kind == "matrix":
        values = values.reshape(6, 3, 3)
    sample = GroupedSample(values, [2, 2, 2], ("a", "b", "c"), PayloadKind(kind))
    with pytest.raises(NonFiniteError, match="^squared distances overflow float64$"):
        block_stats(sample, Metric.L2_VEC)


@settings(max_examples=300, deadline=None)
@given(
    n_rows=st.integers(0, 300),
    row_bytes=st.integers(1, 2000),
    budget=st.one_of(st.none(), st.integers(0, 4000)),
)
def test_chunks_cover_the_rows_in_order(n_rows, row_bytes, budget):
    chunks = [range(n_rows)[c] for c in dbicc.distances._chunks(n_rows, row_bytes, budget)]
    assert [row for chunk in chunks for row in chunk] == list(range(n_rows))
    most = max(1, (dbicc.distances._CHUNK_BYTES if budget is None else budget) // row_bytes)
    assert all(1 <= len(chunk) <= most for chunk in chunks)
