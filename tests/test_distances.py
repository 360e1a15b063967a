import os
import subprocess
import sys
from pathlib import Path

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

    @pytest.mark.parametrize("out_shape", [(3, 3), (2, 4, 4), (6, 3)])
    def test_out_of_another_shape(self, out_shape):
        with pytest.raises(
            InputShapeError,
            match=rf"^out has shape \({out_shape[0]}, .*\), expected \(2, 3, 3\)$",
        ):
            soft_threshold(np.zeros((2, 3, 3)), 0.1, out=np.empty(out_shape))

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
        buf = np.full_like(r, np.nan)
        for stacked, fractions in (soft_threshold(r, level),
                                   soft_threshold(r, level, out=buf)):
            assert stacked.tobytes() == want.tobytes()
            assert stacked.tobytes() == np.stack([m for m, _ in singles]).tobytes()
            assert fractions.tolist() == [f for _, f in singles]
        assert soft_threshold(r, level, out=buf)[0] is buf


class TestDistanceSpec:
    def test_threshold_range(self):
        with pytest.raises(ParameterError):
            DistanceSpec(kind="l2_vec", threshold=1.2)

    def test_kind_coercion(self):
        spec = DistanceSpec(kind="corr_of_corr")
        assert spec.kind.value == "corr_of_corr"
        with pytest.raises(ValueError):
            DistanceSpec(kind="nope")


# Relative error allowed against scipy's squared Euclidean pdist.  Pairs
# kept from the BLAS product cancel at most half of q_g + q_h, so their
# error is a few times that of a 300-term dot product; 20,000 random
# draws from clustered_rows gave at most 2.5e-15.
SQEUCLIDEAN_RTOL = 1e-13


def clustered_rows(n, p, offset, clusters, spread, duplicates, seed):
    """``n`` rows of ``p`` values around ``clusters`` centres far apart.

    Every row is ``offset`` plus a centre (scale 1e4) plus ``spread``
    times noise; ``duplicates`` rows are then copies of others.
    """
    rng = np.random.default_rng(seed)
    centres = 1e4 * rng.standard_normal((clusters, p))
    rows = offset + centres[rng.integers(clusters, size=n)]
    rows += spread * rng.standard_normal((n, p))
    for _ in range(duplicates):
        a, b = rng.integers(n, size=2)
        rows[a] = rows[b]
    return rows


class TestSquaredEuclideanKernel:
    """numpy's pdist(rows, "sqeuclidean") and squareform, against scipy's."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        p=st.integers(1, 300),
        offset=st.sampled_from([0.0, 1.0, -3.5, 1e4, 1e8, -1e8]),
        clusters=st.integers(1, 4),
        spread=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy(self, n, p, offset, clusters, spread, duplicates, seed):
        rows = clustered_rows(n, p, offset, clusters, spread, duplicates, seed)
        got = dbicc.distances.pdist(rows, "sqeuclidean")
        want = scipy.spatial.distance.pdist(rows, "sqeuclidean")
        assert got.shape == want.shape and got.dtype == want.dtype
        first, second = np.triu_indices(n, k=1)
        equal = (rows[first] == rows[second]).all(axis=1)
        assert np.all(got[equal] == 0.0)
        assert np.all(got[~equal] > 0.0)
        err = np.abs(got - want)
        assert np.all(err <= SQEUCLIDEAN_RTOL * want)

    def test_cancelling_pairs_are_recomputed_from_differences(self, monkeypatch):
        # three tight clusters at 1e8: within a cluster q_g + q_h cancels.
        # Each holds a row, its copy, a row an ulp away in a few entries
        # and a row 1e-3 away.
        rng = np.random.default_rng(5)
        centres = 1e8 + 1e3 * rng.standard_normal((3, 50))
        rows = np.repeat(centres, 4, axis=0)
        rows[2::4, :5] = np.nextafter(rows[2::4, :5], np.inf)
        rows[3::4] += 1e-3 * rng.standard_normal((3, 50))
        recomputed = []
        pair_sqeuclidean = dbicc.distances._pair_sqeuclidean

        def spy(rows, first, second):
            recomputed.extend(zip(first.tolist(), second.tolist()))
            return pair_sqeuclidean(rows, first, second)

        monkeypatch.setattr(dbicc.distances, "_pair_sqeuclidean", spy)
        got = dbicc.distances.pdist(rows, "sqeuclidean")
        want = scipy.spatial.distance.pdist(rows, "sqeuclidean")
        first, second = np.triu_indices(len(rows), k=1)
        within = {(a, b) for a, b in zip(first, second) if a // 4 == b // 4}
        assert within <= set(recomputed)
        np.testing.assert_allclose(got, want, rtol=SQEUCLIDEAN_RTOL, atol=0)
        assert np.count_nonzero(got == 0.0) == 3  # each row and its copy

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS product of 100 rows gave other bits with 2 OpenBLAS threads than with 1
        script = (
            "import hashlib, numpy as np, dbicc.distances as d\n"
            "rows = np.random.default_rng(2).standard_normal((100, 120))\n"
            "print(hashlib.sha256(d.pdist(rows, 'sqeuclidean').tobytes()).hexdigest())\n"
        )
        package = str(Path(dbicc.distances.__file__).parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package)
            done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout)
        assert len(digests) == 1

    def test_recompute_chunks_do_not_change_the_bits(self, monkeypatch):
        rows = clustered_rows(30, 40, 1e8, 2, 1e-3, 3, seed=7)
        whole = dbicc.distances.pdist(rows, "sqeuclidean")
        monkeypatch.setattr(dbicc.distances, "_PAIR_CHUNK_BYTES", 1)  # one pair each
        assert dbicc.distances.pdist(rows, "sqeuclidean").tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_squareform_is_scipys_bit_for_bit(self, rng, n):
        condensed = rng.standard_normal(n * (n - 1) // 2)
        condensed[::3] = -0.0
        got = dbicc.distances.squareform(condensed)
        want = scipy.spatial.distance.squareform(condensed)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [2, 4, 11])
    def test_squareform_rejects_a_non_triangular_length(self, size):
        with pytest.raises(InputShapeError, match="not n\\*\\(n-1\\)/2"):
            dbicc.distances.squareform(np.zeros(size))

    @pytest.mark.filterwarnings("error")
    def test_overflow_gives_scipys_infinities_without_a_warning(self, rng):
        rows = 1e200 * rng.standard_normal((5, 4))
        got = dbicc.distances.pdist(rows, "sqeuclidean")
        assert np.isinf(got).all()
        assert got.tobytes() == scipy.spatial.distance.pdist(rows, "sqeuclidean").tobytes()

    @pytest.mark.parametrize("kind", ["vector", "matrix"])
    def test_overflowing_means_raise_non_finite(self, rng, kind):
        # replicates of one individual are equal, so only the means overflow
        payloads = 1e200 * rng.standard_normal((3, 9))
        values = np.repeat(payloads, 2, axis=0)
        if kind == "matrix":
            values = values.reshape(6, 3, 3)
        sample = GroupedSample(values, [2, 2, 2], ("a", "b", "c"), PayloadKind(kind))
        with pytest.raises(NonFiniteError, match="^squared distances overflow float64$"):
            block_stats(sample, Metric.L2_VEC)
