"""Block sums straight from payloads against the distance-matrix path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbicc.core
from dbicc import (
    BlockStats,
    DegenerateDistancesError,
    DegenerateInputError,
    DistanceMatrix,
    GroupedSample,
    IndividualRecord,
    Metric,
    MetricMismatchError,
    PayloadKind,
    block_stats,
    bootstrap_dbicc,
    bootstrap_dbicc_pair,
    compute_distance_matrix,
    dbicc_point,
)
from dbicc.bootstrap import _block_sums, _draw_indices, _estimates_for_indices

RTOL = 1e-10


def grouped(payloads_by_individual, kind):
    individuals = tuple(
        IndividualRecord(id=f"x{i}", replicates=tuple(reps))
        for i, reps in enumerate(payloads_by_individual)
    )
    return GroupedSample(individuals=individuals, payload_kind=kind)


def draw_payloads(rng, sizes, shape, offset, spread, noise):
    """Per individual: a center drawn at ``spread`` plus replicate noise."""
    out = []
    for size in sizes:
        center = offset + spread * rng.standard_normal(shape)
        out.append([center + noise * rng.standard_normal(shape) for _ in range(size)])
    return out


# replicate counts: 2-6 individuals of 1-4 replicates, singletons included,
# at least one individual with 2+
group_sizes = st.lists(st.integers(1, 4), min_size=2, max_size=6).filter(
    lambda sizes: max(sizes) >= 2
)
seeds = st.integers(0, 2**32 - 1)
# (offset, between spread, within noise): ordinary data, a large common
# offset with tiny within-noise, and near-duplicate replicates
regimes = st.sampled_from(
    [(0.0, 1.0, 0.5), (1e4, 1.0, 1e-6), (1e4, 1e-6, 1e-9), (0.0, 1.0, 1e-9)]
)


def assert_same_analysis(fast, exact):
    """Block sums, point estimate and bootstrap replicates agree to RTOL."""
    assert np.array_equal(fast.sizes, exact.sizes)
    np.testing.assert_allclose(fast.within, exact.within, rtol=RTOL, atol=0)
    np.testing.assert_allclose(fast.cross, exact.cross, rtol=RTOL, atol=0)
    got, want = dbicc_point(fast), dbicc_point(exact)
    assert got.msd_within == pytest.approx(want.msd_within, rel=RTOL, abs=0)
    assert got.msd_between == pytest.approx(want.msd_between, rel=RTOL, abs=0)
    assert (got.n_within_pairs, got.n_between_pairs) == (
        want.n_within_pairs, want.n_between_pairs
    )
    assert_rho_close(got.rho_hat, want.rho_hat)
    picks = _draw_indices(fast.sizes.size, 60, 11)
    for a, b in zip(
        _estimates_for_indices(*fast, picks), _estimates_for_indices(*exact, picks)
    ):
        if a.dtype == bool:
            assert np.array_equal(a, b)
        else:
            assert_rho_close(a, b)


def assert_rho_close(got, want):
    """rho_hat = 1 - MSD ratio: its error is RTOL of 1 - rho_hat plus rounding."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    err = np.abs(got - want)
    assert np.all(np.isnan(want) | (err <= RTOL * np.abs(1.0 - want) + 1e-15))


class TestAgainstMatrixPath:
    @settings(max_examples=60, deadline=None)
    @given(sizes=group_sizes, dim=st.integers(1, 6), regime=regimes, seed=seeds)
    def test_l2_vectors(self, sizes, dim, regime, seed):
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim,), *regime)
        sample = grouped(payloads, PayloadKind.VECTOR)
        exact = _block_sums(compute_distance_matrix(sample, Metric.L2_VEC))
        assert_same_analysis(block_stats(sample, Metric.L2_VEC), exact)

    @settings(max_examples=40, deadline=None)
    @given(sizes=group_sizes, dim=st.integers(1, 4), regime=regimes, seed=seeds)
    def test_l2_matrices(self, sizes, dim, regime, seed):
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), *regime)
        sample = grouped(payloads, PayloadKind.MATRIX)
        exact = _block_sums(compute_distance_matrix(sample, Metric.L2_VEC))
        assert_same_analysis(block_stats(sample, Metric.L2_VEC), exact)

    @settings(max_examples=40, deadline=None)
    @given(sizes=group_sizes, dim=st.integers(4, 6), seed=seeds)
    def test_corr_of_corr(self, sizes, dim, seed):
        # 4x4 and up: standardized 3x3 triangles live on a circle, where a
        # replicate pair is often close enough for scipy's 1 - r, the
        # reference here, to lose digits (see the next test).
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), 0.0, 1.0, 0.3)
        sample = grouped(payloads, PayloadKind.MATRIX)
        exact = _block_sums(compute_distance_matrix(sample, Metric.CORR_OF_CORR))
        assert_same_analysis(block_stats(sample, Metric.CORR_OF_CORR), exact)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=group_sizes,
        dim=st.integers(4, 6),
        noise=st.sampled_from([1e-3, 1e-4]),
        seed=seeds,
    )
    def test_corr_of_corr_near_duplicates(self, sizes, dim, noise, seed):
        # Corr of corr is l2 on the standardized lower triangles at half
        # scale, so that is the reference here: scipy's 1 - r cancels to a
        # few digits once r is this close to 1.  Standardizing rounds each
        # row by about 1e-16 of its norm in any algorithm, which bounds the
        # relative accuracy of a difference of size d by about 1e-16 / d, so
        # noise of 1e-5 and below is covered by the l2 cases instead.
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), 0.0, 1.0, noise)
        tril = np.tril_indices(dim, k=-1)
        z = [[(m[tril] - m[tril].mean()) for m in reps] for reps in payloads]
        z = [[v / np.linalg.norm(v) for v in reps] for reps in z]
        dm = compute_distance_matrix(grouped(z, PayloadKind.VECTOR), Metric.L2_VEC)
        half = DistanceMatrix(
            np.sqrt(0.5) * dm.values, dm.individual_index, dm.replicate_index
        )
        sample = grouped(payloads, PayloadKind.MATRIX)
        fast = block_stats(sample, Metric.CORR_OF_CORR)
        assert_same_analysis(fast, _block_sums(half))

    def test_l1_needs_the_distance_matrix(self, rng):
        payloads = draw_payloads(rng, [2, 1, 3], (4,), 0.0, 1.0, 0.5)
        sample = grouped(payloads, PayloadKind.VECTOR)
        with pytest.raises(MetricMismatchError, match="l1 block sums"):
            block_stats(sample, Metric.L1_VEC)

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 5])
    def test_chunking_does_not_change_the_bits(self, rng, monkeypatch, rows_per_chunk):
        payloads = draw_payloads(rng, [3, 1, 4, 2, 2, 1, 3], (5,), 10.0, 1.0, 0.1)
        sample = grouped(payloads, PayloadKind.VECTOR)
        whole = block_stats(sample, Metric.L2_VEC)
        monkeypatch.setattr(dbicc.core, "_ROW_CHUNK_BYTES", 8 * 5 * rows_per_chunk)
        for a, b in zip(block_stats(sample, Metric.L2_VEC), whole):
            assert np.array_equal(a, b)

    def test_bootstrap_accepts_either_source(self, rng):
        payloads = draw_payloads(rng, [2, 3, 2, 4, 1], (3,), 0.0, 1.0, 0.5)
        sample = grouped(payloads, PayloadKind.VECTOR)
        dm = compute_distance_matrix(sample, Metric.L2_VEC)
        stats = block_stats(sample, Metric.L2_VEC)
        pairs = [bootstrap_dbicc_pair(source, 300, seed=3) for source in (stats, dm)]
        for fast, exact in zip(*pairs):
            assert fast.n_degenerate == exact.n_degenerate
            assert_rho_close(fast.replicate_estimates, exact.replicate_estimates)
        single = bootstrap_dbicc(stats, 300, corrected=False, seed=3)
        reference = bootstrap_dbicc(dm, 300, corrected=False, seed=3)
        assert_rho_close(
            [single.ci_low, single.ci_high], [reference.ci_low, reference.ci_high]
        )


class TestExactCases:
    @pytest.mark.parametrize("metric", [Metric.L2_VEC, Metric.CORR_OF_CORR])
    def test_identical_replicates_give_exactly_one(self, rng, metric):
        centers = [rng.standard_normal((4, 4)) + 1e4 for _ in range(4)]
        payloads = [[c.copy() for _ in range(3)] for c in centers]
        sample = grouped(payloads, PayloadKind.MATRIX)
        stats = block_stats(sample, metric)
        assert np.all(stats.within == 0.0)
        est = dbicc_point(stats)
        assert est.msd_within == 0.0
        assert est.rho_hat == 1.0

    @pytest.mark.parametrize("metric", [Metric.L2_VEC, Metric.CORR_OF_CORR])
    def test_all_identical_payloads_are_degenerate(self, rng, metric):
        payload = rng.standard_normal((4, 4)) + 1e4
        sample = grouped([[payload.copy()] * 2 for _ in range(3)], PayloadKind.MATRIX)
        stats = block_stats(sample, metric)
        assert not np.any(stats.cross)
        with pytest.raises(DegenerateDistancesError):
            dbicc_point(stats)
        with pytest.raises(DegenerateDistancesError):
            bootstrap_dbicc(stats, 200, seed=1)

    def test_constant_lower_triangle_is_degenerate_input(self, rng):
        payloads = [[rng.standard_normal((4, 4)) for _ in range(2)] for _ in range(3)]
        payloads[1][0] = np.full((4, 4), 0.3)
        sample = grouped(payloads, PayloadKind.MATRIX)
        with pytest.raises(DegenerateInputError, match="payload 2 has a constant"):
            block_stats(sample, Metric.CORR_OF_CORR)

    def test_block_stats_fields(self, rng):
        payloads = draw_payloads(rng, [2, 1, 3], (2,), 0.0, 1.0, 0.5)
        stats = block_stats(grouped(payloads, PayloadKind.VECTOR), Metric.L2_VEC)
        assert isinstance(stats, BlockStats)
        assert stats.sizes.tolist() == [2, 1, 3]
        assert np.array_equal(np.diagonal(stats.cross), 2.0 * stats.within)
        assert np.array_equal(stats.cross, stats.cross.T)


def test_estimate_and_bootstrap_allocate_less_than_one_matrix():
    # n = 4000 payloads of 2 replicates: one n-by-n float64 array is 128 MB
    rng = np.random.default_rng(5)
    payloads = draw_payloads(rng, [2] * 2000, (8,), 0.0, 1.0, 0.5)
    sample = grouped(payloads, PayloadKind.VECTOR)
    n = sample.n_total
    tracemalloc.start()
    try:
        stats = block_stats(sample, Metric.L2_VEC)
        dbicc_point(stats)
        bootstrap_dbicc(stats, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 4000
    assert peak < 8 * n * n
