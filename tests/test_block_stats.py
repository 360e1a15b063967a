"""Block sums straight from payloads against the distance-matrix path."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

import dbicc.core
import dbicc.distances
from dbicc import (
    BlockStats,
    DegenerateDistancesError,
    DegenerateInputError,
    DistanceMatrix,
    DistanceSpec,
    GroupedSample,
    Metric,
    PayloadKind,
    block_stats,
    bootstrap_dbicc,
    bootstrap_dbicc_pair,
    compute_distance_matrix,
    corr_of_corr_distance,
    dbicc_point,
    soft_threshold,
)
from dbicc.bootstrap import (
    _block_sums,
    _ReplicateTerms,
)
from dbicc.core import _between_sum, _MatrixColumns
from conftest import bootstrap_draw

RTOL = 1e-10


def grouped(payloads_by_individual, kind):
    return GroupedSample(
        values=np.array([p for reps in payloads_by_individual for p in reps]),
        group_sizes=[len(reps) for reps in payloads_by_individual],
        labels=tuple(f"x{i}" for i in range(len(payloads_by_individual))),
        payload_kind=kind,
    )


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


@st.composite
def dim_and_sizes(draw, dims, width=lambda dim: dim, max_individuals=6):
    """A payload dimension and replicate counts of I individuals.

    The rows compared have ``width(dim)`` values, p; I is 2, p - 1, p or
    p + 1, or up to ``max_individuals``, so replicate blocks of I or more
    rows take both projections of the means (each row's own when
    p <= I, the I-by-I Gram when p > I).
    """
    dim = draw(dims)
    p = width(dim)
    n_groups = draw(
        st.sampled_from(sorted({2, max(2, p - 1), max(2, p), p + 1}))
        | st.integers(2, max_individuals)
    )
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=n_groups, max_size=n_groups).filter(
            lambda sizes: max(sizes) >= 2
        )
    )
    return dim, sizes


def tril_width(dim):
    return dim * (dim - 1) // 2

# (offset, between spread, within noise): ordinary data, a large common
# offset with tiny within-noise, and near-duplicate replicates
regimes = st.sampled_from(
    [(0.0, 1.0, 0.5), (1e4, 1.0, 1e-6), (1e4, 1e-6, 1e-9), (0.0, 1.0, 1e-9)]
)


def assert_one_form(stats, metric):
    """Payload rows give one between form: ``cross`` under l1, else the means."""
    if metric is Metric.L1_VEC:
        assert stats.cross is not None and stats.means is None
    else:
        assert stats.cross is None and stats.means.shape[0] == stats.sizes.size


def assert_same_analysis(fast, exact, metric):
    """Block sums, point estimate and bootstrap replicates agree to RTOL."""
    assert np.array_equal(fast.sizes, exact.sizes)
    assert_one_form(fast, metric)
    np.testing.assert_allclose(fast.within, exact.within, rtol=RTOL, atol=0)
    assert _between_sum(fast) == pytest.approx(_between_sum(exact), rel=RTOL, abs=0)
    if fast.cross is not None and exact.cross is not None:
        np.testing.assert_allclose(fast.cross, exact.cross, rtol=RTOL, atol=0)
    got, want = dbicc_point(fast), dbicc_point(exact)
    assert got.msd_within == pytest.approx(want.msd_within, rel=RTOL, abs=0)
    assert got.msd_between == pytest.approx(want.msd_between, rel=RTOL, abs=0)
    assert (got.n_within_pairs, got.n_between_pairs) == (
        want.n_within_pairs, want.n_between_pairs
    )
    assert_rho_close(got.rho_hat, want.rho_hat)
    picks = bootstrap_draw(fast.sizes.size, 60, 11)
    assert_same_replicates(fast, exact, picks)
    for a, b in zip(
        replicate_terms(fast, picks).estimates(picks),
        replicate_terms(exact, picks).estimates(picks),
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
    @given(grouping=dim_and_sizes(st.integers(1, 6)), regime=regimes, seed=seeds)
    def test_l2_vectors(self, grouping, regime, seed):
        dim, sizes = grouping
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim,), *regime)
        sample = grouped(payloads, PayloadKind.VECTOR)
        exact = _block_sums(compute_distance_matrix(sample, Metric.L2_VEC))
        assert_same_analysis(block_stats(sample, Metric.L2_VEC), exact, Metric.L2_VEC)

    @settings(max_examples=40, deadline=None)
    @given(
        grouping=dim_and_sizes(st.integers(1, 4), width=lambda dim: dim * dim),
        regime=regimes,
        seed=seeds,
    )
    def test_l2_matrices(self, grouping, regime, seed):
        dim, sizes = grouping
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), *regime)
        sample = grouped(payloads, PayloadKind.MATRIX)
        exact = _block_sums(compute_distance_matrix(sample, Metric.L2_VEC))
        assert_same_analysis(block_stats(sample, Metric.L2_VEC), exact, Metric.L2_VEC)

    @settings(max_examples=40, deadline=None)
    @given(grouping=dim_and_sizes(st.integers(3, 6), width=tril_width), seed=seeds)
    def test_corr_of_corr(self, grouping, seed):
        dim, sizes = grouping
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), 0.0, 1.0, 0.3)
        sample = grouped(payloads, PayloadKind.MATRIX)
        exact = _block_sums(compute_distance_matrix(sample, Metric.CORR_OF_CORR))
        fast = block_stats(sample, Metric.CORR_OF_CORR)
        assert_same_analysis(fast, exact, Metric.CORR_OF_CORR)

    @settings(max_examples=40, deadline=None)
    @given(
        grouping=dim_and_sizes(st.integers(4, 6), width=tril_width),
        noise=st.sampled_from([1e-3, 1e-4]),
        seed=seeds,
    )
    def test_corr_of_corr_near_duplicates(self, grouping, noise, seed):
        # Corr of corr is l2 on the standardized lower triangles at half
        # scale, so that is the reference here, standardized independently
        # of the library.  Standardizing rounds each
        # row by about 1e-16 of its norm in any algorithm, which bounds the
        # relative accuracy of a difference of size d by about 1e-16 / d, so
        # noise of 1e-5 and below is covered by the l2 cases instead.
        dim, sizes = grouping
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), 0.0, 1.0, noise)
        tril = np.tril_indices(dim, k=-1)
        z = [[(m[tril] - m[tril].mean()) for m in reps] for reps in payloads]
        z = [[v / np.linalg.norm(v) for v in reps] for reps in z]
        dm = compute_distance_matrix(grouped(z, PayloadKind.VECTOR), Metric.L2_VEC)
        half = DistanceMatrix(np.sqrt(0.5) * dm.values, dm.group_sizes)
        sample = grouped(payloads, PayloadKind.MATRIX)
        fast = block_stats(sample, Metric.CORR_OF_CORR)
        assert_same_analysis(fast, _block_sums(half), Metric.CORR_OF_CORR)

    @pytest.mark.parametrize("noise", [1e-5, 1e-3])
    def test_corr_matrix_keeps_its_digits_near_r_one(self, rng, noise):
        # 1 - r from a Pearson correlation cancels near r = 1 (8.8e-6
        # relative at noise 1e-5); the matrix path must not
        dim = 6
        payloads = draw_payloads(rng, [3, 2, 3, 1], (dim, dim), 0.0, 1.0, noise)
        tril = np.tril_indices(dim, k=-1)
        z = [m[tril] - m[tril].mean() for reps in payloads for m in reps]
        z = np.array([v / np.linalg.norm(v) for v in z])
        reference = np.sqrt(0.5) * np.linalg.norm(z[:, None] - z[None], axis=2)
        sample = grouped(payloads, PayloadKind.MATRIX)
        got = compute_distance_matrix(sample, Metric.CORR_OF_CORR).values
        np.testing.assert_allclose(got, reference, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_corr_of_corr_does_not_depend_on_scale(self, rng, scale):
        # squares of these payloads overflow or underflow float64
        payloads = draw_payloads(rng, [3, 2, 3, 1], (5, 5), 0.0, 1.0, 0.3)
        scaled = [[scale * m for m in reps] for reps in payloads]
        plain = grouped(payloads, PayloadKind.MATRIX)
        big = grouped(scaled, PayloadKind.MATRIX)
        np.testing.assert_allclose(
            compute_distance_matrix(big, Metric.CORR_OF_CORR).values,
            compute_distance_matrix(plain, Metric.CORR_OF_CORR).values,
            rtol=1e-12, atol=1e-15,
        )
        assert_same_analysis(
            block_stats(big, Metric.CORR_OF_CORR),
            block_stats(plain, Metric.CORR_OF_CORR),
            Metric.CORR_OF_CORR,
        )
        assert corr_of_corr_distance(*scaled[0][:2]) == pytest.approx(
            corr_of_corr_distance(*payloads[0][:2]), rel=1e-12
        )

    @pytest.mark.parametrize("chunk_rows", [1, 7, None])
    def test_l1_equals_the_matrix_sums(self, rng, monkeypatch, chunk_rows):
        # blocks of 1..19 rows, so chunks hold several blocks or one block
        # larger than the chunk
        sizes = np.concatenate(([1], rng.integers(1, 20, size=60), [1]))
        sample = grouped(
            draw_payloads(rng, sizes, (3,), 10.0, 1.0, 0.5), PayloadKind.VECTOR
        )
        exact = _block_sums(compute_distance_matrix(sample, "l1_vec"))
        if chunk_rows is not None:
            monkeypatch.setattr(
                dbicc.core, "_BLOCK_SUM_BYTES", 8 * sample.n_total * chunk_rows
            )
        stats = block_stats(sample, "l1_vec")
        assert stats.means is None
        for got, want in zip(stats[:3], exact[:3]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 5])
    def test_chunking_does_not_change_the_bits(self, rng, monkeypatch, rows_per_chunk):
        payloads = draw_payloads(rng, [3, 1, 4, 2, 2, 1, 3], (5,), 10.0, 1.0, 0.1)
        sample = grouped(payloads, PayloadKind.VECTOR)
        whole = block_stats(sample, Metric.L2_VEC)
        monkeypatch.setattr(dbicc.distances, "_CHUNK_BYTES", 8 * 5 * rows_per_chunk)
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
        # 4x4 payloads (p = 16 or 6) of 4 individuals (p > I) and of 20
        for n_individuals in (4, 20):
            centers = [rng.standard_normal((4, 4)) + 1e4 for _ in range(n_individuals)]
            payloads = [[c.copy() for _ in range(3)] for c in centers]
            sample = grouped(payloads, PayloadKind.MATRIX)
            stats = block_stats(sample, metric)
            assert_one_form(stats, metric)
            assert np.all(stats.within == 0.0)
            est = dbicc_point(stats)
            assert est.msd_within == 0.0
            assert est.rho_hat == 1.0

    @pytest.mark.parametrize("metric", [Metric.L2_VEC, Metric.CORR_OF_CORR])
    def test_all_identical_payloads_are_degenerate(self, rng, metric):
        payload = rng.standard_normal((4, 4)) + 1e4
        for n_individuals in (3, 20):
            sample = grouped(
                [[payload.copy()] * 2 for _ in range(n_individuals)], PayloadKind.MATRIX
            )
            stats = block_stats(sample, metric)
            assert_one_form(stats, metric)
            assert not np.any(stats.means)
            assert not np.any(stats.within)
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
        # 3 individuals: p < I, p = I and p > I all give the means
        for dim in (2, 3, 4):
            payloads = draw_payloads(rng, [2, 1, 3], (dim,), 0.0, 1.0, 0.5)
            sample = grouped(payloads, PayloadKind.VECTOR)
            stats = block_stats(sample, Metric.L2_VEC)
            exact = _block_sums(compute_distance_matrix(sample, Metric.L2_VEC))
            assert isinstance(stats, BlockStats)
            assert stats.sizes.tolist() == [2, 1, 3]
            np.testing.assert_allclose(stats.within, exact.within, rtol=RTOL, atol=0)
            assert _between_sum(stats) == pytest.approx(
                _between_sum(exact), rel=RTOL, abs=0
            )
            assert stats.cross is None
            assert stats.means.shape == (3, dim)


def draw_clustered(rng, sizes, dim, offset, spread, noise, clusters):
    """Vectors around ``clusters`` centres a unit apart: individual ``i``
    is its centre plus ``spread`` noise, each replicate that plus
    ``noise``, so a small ``spread`` makes clusters of near-identical
    individuals."""
    centres = offset + rng.standard_normal((clusters, dim))
    out = []
    for i, size in enumerate(sizes):
        centre = centres[i % clusters] + spread * rng.standard_normal(dim)
        out.append([centre + noise * rng.standard_normal(dim) for _ in range(size)])
    return grouped(out, PayloadKind.VECTOR)


def oracle(sample, metric):
    """Block sums of the sample's distance matrix, as the I-by-I cross sums."""
    return _block_sums(compute_distance_matrix(sample, metric))


def dense(stats):
    """The same block sums as the I-by-I cross sums, built from the means."""
    if stats.means is None:
        return stats
    sizes, within, _, means = stats[:4]
    spread = within / sizes
    cross = squareform(pdist(means, "sqeuclidean")) * sizes[:, None] * sizes[None, :]
    cross += sizes[None, :] * spread[:, None] + sizes[:, None] * spread[None, :]
    np.fill_diagonal(cross, 2.0 * within)
    return BlockStats(sizes, within, cross)


def replicate_terms(stats, picks):
    """The replicate terms of a bootstrap that draws the rows of ``picks``."""
    return _ReplicateTerms(stats, n_boot=len(picks))


def assert_same_replicates(stats, reference, picks):
    """Replicate components of two sets of block sums agree, with the same flags."""
    fast = replicate_terms(stats, picks).components(picks)
    exact = replicate_terms(reference, picks).components(picks)
    for key in ("within_den", "naive_den", "corrected_den"):
        assert np.array_equal(fast[key], exact[key])
    np.testing.assert_allclose(fast["within_num"], exact["within_num"], rtol=RTOL, atol=0)
    flags = zip(
        replicate_terms(stats, picks).estimates(picks)[2:],
        replicate_terms(reference, picks).estimates(picks)[2:],
    )
    for (got, want), kind in zip(flags, ("naive", "corrected")):
        assert np.array_equal(got, want)
        np.testing.assert_allclose(
            fast[f"{kind}_num"][want], exact[f"{kind}_num"][want], rtol=RTOL, atol=0
        )


# individuals a unit apart, or in clusters of near-identical ones
clustered_regimes = st.sampled_from(
    [(0.0, 1.0, 0.5), (1e4, 1.0, 1e-6), (1e4, 1e-6, 1e-9), (0.0, 1.0, 1e-9),
     (0.0, 1e-9, 1e-3), (1e4, 1e-9, 0.0)]
)


class TestFactoredReplicates:
    @settings(max_examples=80, deadline=None)
    @given(
        grouping=dim_and_sizes(st.sampled_from([1, 2, 5, 20, 80]), max_individuals=60),
        regime=clustered_regimes,
        clusters=st.integers(1, 4),
        seed=seeds,
    )
    def test_factored_match_dense(self, grouping, regime, clusters, seed):
        dim, sizes = grouping
        rng = np.random.default_rng(seed)
        sample = draw_clustered(rng, sizes, dim, *regime, clusters)
        stats = block_stats(sample, Metric.L2_VEC)
        assert_one_form(stats, Metric.L2_VEC)
        picks = bootstrap_draw(len(sizes), 60, seed)
        # numerators against the dense product on the same sums: at a 1e4
        # offset, individuals 1e-6 apart in a cluster a unit from the first
        # payload have means, and so sums, that differ from the distance
        # matrix's by up to about 2e-10
        assert_same_replicates(stats, dense(stats), picks)
        flags = zip(
            replicate_terms(stats, picks).estimates(picks)[2:],
            replicate_terms(oracle(sample, Metric.L2_VEC), picks).estimates(picks)[2:],
        )
        for got, want in flags:
            assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(grouping=dim_and_sizes(st.integers(3, 9), width=tril_width), seed=seeds)
    def test_factored_match_dense_corr_of_corr(self, grouping, seed):
        dim, sizes = grouping
        rng = np.random.default_rng(seed)
        payloads = draw_payloads(rng, sizes, (dim, dim), 0.0, 1.0, 0.3)
        sample = grouped(payloads, PayloadKind.MATRIX)
        stats = block_stats(sample, Metric.CORR_OF_CORR)
        assert_one_form(stats, Metric.CORR_OF_CORR)
        picks = bootstrap_draw(len(sizes), 60, seed)
        assert_same_replicates(stats, oracle(sample, Metric.CORR_OF_CORR), picks)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=group_sizes,
        dim=st.sampled_from([1, 3, 20]),
        regime=clustered_regimes,
        seed=seeds,
    )
    def test_naive_equals_corrected_without_duplicates(self, sizes, dim, regime, seed):
        rng = np.random.default_rng(seed)
        sample = draw_clustered(rng, sizes, dim, *regime, 2)
        stats = block_stats(sample, Metric.L2_VEC)
        picks = np.array([rng.permutation(len(sizes)) for _ in range(20)])
        naive, corrected, naive_valid, corrected_valid = replicate_terms(
            stats, picks
        ).estimates(picks)
        assert np.array_equal(naive_valid, corrected_valid)
        assert np.array_equal(naive, corrected, equal_nan=True)

    @pytest.mark.parametrize("metric", [Metric.L2_VEC, Metric.CORR_OF_CORR])
    def test_exact_zeros_and_flags(self, rng, metric):
        # 0: identical replicates; 1 and 2: bitwise-identical payloads, zero
        # spread; 3: ordinary; 4: a singleton.  The smaller payloads have
        # p <= I = 5, the larger p > I; the 10 replicate rows take the
        # Gram when p > I.
        for side in (2 if metric is Metric.L2_VEC else 3, 4):
            shape = (side, side)
            twin = rng.standard_normal(shape) + 1e4
            same = rng.standard_normal(shape) + 1e4
            payloads = [
                [same.copy() for _ in range(3)],
                [twin.copy(), twin.copy()],
                [twin.copy(), twin.copy()],
                [rng.standard_normal(shape) + 1e4 for _ in range(2)],
                [rng.standard_normal(shape) + 1e4],
            ]
            sample = grouped(payloads, PayloadKind.MATRIX)
            stats = block_stats(sample, metric)
            assert_one_form(stats, metric)
            reference = oracle(sample, metric)
            picks = np.array(
                [[g] * 5 for g in range(5)]
                + [[1, 2, 1, 2, 2], [1, 2, 2, 2, 2], [2, 1, 1, 1, 1]]
                + [[0, 0, 0, 4, 4], [3, 3, 3, 3, 1]]
            )
            fast = replicate_terms(stats, picks).components(picks)
            exact = replicate_terms(reference, picks).components(picks)
            for kind in ("naive_num", "corrected_num"):
                zero = exact[kind] == 0.0
                assert zero[[0, 1, 2, 4, 5, 6, 7]].all()
                assert np.array_equal(fast[kind][zero], exact[kind][zero])
            assert_same_replicates(stats, reference, picks)

    def test_two_pass_chunks_do_not_change_the_bits(self, rng, monkeypatch):
        sample = draw_clustered(rng, [2, 3, 1, 2, 2, 3], 4, 1e4, 1e-6, 1e-9, 2)
        stats = block_stats(sample, Metric.L2_VEC)
        picks = bootstrap_draw(6, 200, 7)
        two_pass = dbicc.core._two_pass_spread
        rows = []

        def counting(means, weights):
            rows.append(len(weights))
            return two_pass(means, weights)

        monkeypatch.setattr(dbicc.core, "_two_pass_spread", counting)
        whole = replicate_terms(stats, picks).components(picks)
        assert 0 < rows[0] < 200  # both paths run
        for budget in (1, 3 * 16 * stats.means.size):
            monkeypatch.setattr(dbicc.distances, "_CHUNK_BYTES", budget)
            chunked = replicate_terms(stats, picks).components(picks)
            for key in whole:
                assert np.array_equal(chunked[key], whole[key])

    @pytest.mark.parametrize(
        "regime", [(0.0, 1.0, 0.5), (1e4, 1e-6, 1e-9), (1e8, 1e-3, 1e-12)]
    )
    def test_a_replicate_is_a_function_of_its_counts(self, monkeypatch, regime):
        rng = np.random.default_rng(3)
        sample = draw_clustered(rng, [2, 3, 1, 2, 2, 3], 4, *regime, 2)
        stats = block_stats(sample, Metric.L2_VEC)
        picks = bootstrap_draw(6, 200, 3)
        shuffled = rng.permuted(picks, axis=1)  # each row's slots reordered
        two_pass = dbicc.core._two_pass_spread
        rows = []

        def counting(means, weights):
            rows.append(len(weights))
            return two_pass(means, weights)

        monkeypatch.setattr(dbicc.core, "_two_pass_spread", counting)
        drawn = replicate_terms(stats, picks).components(picks)
        assert sum(rows) > 0  # some rows are redone in two passes
        reordered = replicate_terms(stats, shuffled).components(shuffled)
        for key in drawn:
            assert np.array_equal(reordered[key], drawn[key])


class TestGramProjection:
    """With p > I and at least I replicates in all, the means project through the Gram."""

    @staticmethod
    def stats(dim, regime=(0.0, 1.0, 0.5), seed=4):
        """8 individuals (I = 8) of 1-3 replicates, p = ``dim``."""
        rng = np.random.default_rng(seed)
        sample = draw_clustered(rng, [3, 1, 2, 2, 3, 2, 1, 2], dim, *regime, 3)
        return block_stats(sample, Metric.L2_VEC)

    @staticmethod
    def spy(monkeypatch):
        """Record the shape of every Gram ``dbicc.core`` builds, and each product read off one."""
        built, used = [], []

        class Read(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                used.append(ufunc.__name__)
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        gram = dbicc.core._gram

        def recording(rows):
            built.append(rows.shape)
            return gram(rows).view(Read)

        monkeypatch.setattr(dbicc.core, "_gram", recording)
        return built, used

    @pytest.mark.parametrize("regime", [(0.0, 1.0, 0.5), (1e4, 1e-6, 1e-9)],
                             ids=["ordinary", "clustered"])
    @pytest.mark.parametrize("n_rows", [3, 8, 50])
    def test_gram_and_direct_projections_agree(self, monkeypatch, regime, n_rows):
        stats = self.stats(30, regime)
        built, used = self.spy(monkeypatch)
        picks = bootstrap_draw(8, n_rows, n_rows)
        # a Gram built for a bootstrap of I rows or more serves a call of any length
        gram = _ReplicateTerms(stats, n_boot=8).components(picks)
        assert built == [(8, 30)] and used == ["matmul"]
        direct = _ReplicateTerms(stats, n_boot=7).components(picks)
        assert built == [(8, 30)] and used == ["matmul"]
        # every product rounds by its number of rows: only the integer
        # denominators are exact; numerators agree where they are valid
        naive_valid, corrected_valid = _ReplicateTerms(stats).estimates(picks)[2:]
        kept = {"within_num": slice(None), "naive_num": naive_valid,
                "corrected_num": corrected_valid}
        for key, values in gram.items():
            if key.endswith("_den"):
                assert np.array_equal(values, direct[key])
            else:
                np.testing.assert_allclose(
                    values[kept[key]], direct[key][kept[key]], rtol=RTOL, atol=0
                )

    @pytest.mark.parametrize("n_boot", [5, 60])
    def test_cancelling_rows_are_redone_on_either_projection(self, n_boot):
        # two clusters 1e3 apart of individuals 0.1 apart: a replicate that
        # draws from one cluster only cancels all but about 1e-8 of w.q, so
        # its one pass alone would keep about 8 digits.  A bootstrap of 5
        # replicates projects each row, one of 60 takes the Gram.
        rng = np.random.default_rng(9)
        centres = 1e3 * rng.standard_normal((2, 30))
        payloads = []
        for g in range(12):
            centre = centres[g % 2] + 0.1 * rng.standard_normal(30)
            payloads.append([centre + 0.01 * rng.standard_normal(30) for _ in range(2)])
        sample = grouped(payloads, PayloadKind.VECTOR)
        picks = 2 * rng.integers(0, 6, size=(n_boot, 12))  # the first cluster
        picks[1::2] = rng.integers(0, 12, size=picks[1::2].shape)
        stats = block_stats(sample, Metric.L2_VEC)
        assert_same_replicates(stats, oracle(sample, Metric.L2_VEC), picks)

    def test_the_gram_is_built_once_per_replicate_terms(self, monkeypatch):
        wide, narrow = self.stats(30), self.stats(8)  # p > I, p = I
        built, used = self.spy(monkeypatch)
        # fewer replicates than individuals in all project each row
        terms = _ReplicateTerms(wide, n_boot=7)
        terms.components(bootstrap_draw(8, 7, 2))
        dbicc_point(wide._replace(between=None))  # the between sum is one row
        _ReplicateTerms(narrow, n_boot=40).components(bootstrap_draw(8, 40, 4))
        assert built == [] and used == []
        # I replicates or more: one Gram, read by every call, one row too
        terms = _ReplicateTerms(wide, n_boot=8)
        assert built == [(8, 30)]
        for row in bootstrap_draw(8, 5, 1):
            terms.components(row[None])
        terms.components(bootstrap_draw(8, 40, 4))
        assert built == [(8, 30)] and used == ["matmul"] * 6
        # a bootstrap of 100 replicates in blocks of 3 rows, each shorter
        # than I: one more Gram, and every block reads it
        monkeypatch.setattr(dbicc.bootstrap, "_REPLICATE_BYTES", 8 * 8 * 3)
        used.clear()
        bootstrap_dbicc(wide, 100, seed=5)
        assert built == [(8, 30)] * 2 and used == ["matmul"] * 34

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # 300 individuals, p = 1000, B = 400: a BLAS Gram of the means gave
        # other bits with 2 OpenBLAS threads than with 1, and so did the
        # replicate numerators read off it.  The between sum, the Gram and
        # the numerators must not.
        script = (
            "import hashlib, numpy as np, dbicc.core as core\n"
            "from dbicc import GroupedSample, PayloadKind, block_stats\n"
            "from dbicc.bootstrap import _ReplicateTerms\n"
            "rng = np.random.default_rng(6)\n"
            "values = rng.standard_normal((600, 1000))\n"
            "values += 3 * rng.standard_normal((300, 1000)).repeat(2, axis=0) + 10\n"
            "sample = GroupedSample(values, [2] * 300, tuple(range(300)),\n"
            "                       PayloadKind.VECTOR)\n"
            "stats = block_stats(sample, 'l2_vec')\n"
            "grams, gram = [], core._gram\n"
            "core._gram = lambda rows: grams.append(gram(rows)) or grams[-1]\n"
            "terms = _ReplicateTerms(stats, n_boot=400)\n"
            "comp = terms.components(rng.integers(0, 300, (400, 300)))\n"
            "digest = hashlib.sha256(np.float64(stats.between).tobytes())\n"
            "digest.update(grams[0].tobytes())\n"
            "for key in ('within_num', 'naive_num', 'corrected_num'):\n"
            "    digest.update(comp[key].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        package = str(Path(dbicc.core.__file__).parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package)
            done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout)
        assert len(digests) == 1


def test_estimate_and_bootstrap_allocate_less_than_one_matrix():
    # n = 4000 payloads of 2 replicates: one n-by-n float64 array is 128 MB,
    # one I-by-I array 32 MB; l1 keeps an I-by-I cross, l2 the means
    rng = np.random.default_rng(5)
    payloads = draw_payloads(rng, [2] * 2000, (8,), 0.0, 1.0, 0.5)
    sample = grouped(payloads, PayloadKind.VECTOR)
    n = sample.n_total
    n_individuals = sample.n_individuals
    assert (n, n_individuals) == (4000, 2000)
    for metric in (Metric.L2_VEC, Metric.L1_VEC):
        tracemalloc.start()
        try:
            stats = block_stats(sample, metric)
            dbicc_point(stats)
            bootstrap_dbicc(stats, 200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n, metric
        if metric is Metric.L2_VEC:
            assert peak < 8 * n_individuals * n_individuals


def draw_matrix_stack(rng, sizes, p, kind, constants, at_level, level):
    """Matrix payloads of one of the stack kinds the column pipeline tells apart.

    ``symmetric``: exactly symmetric with a unit diagonal (correlations);
    ``varying diagonal``: symmetric, with a diagonal that differs between
    payloads (covariances); ``asymmetric``.  ``constants`` entries (with
    their mirrors) hold one value, 0 among them, in every payload, and
    ``at_level`` entries lie exactly at plus or minus ``level``.
    """
    mats = np.concatenate([
        rng.uniform(-1.0, 1.0, (p, p)) + 0.3 * rng.standard_normal((size, p, p))
        for size in sizes
    ])
    cells = [tuple(rng.integers(p, size=2)) for _ in range(constants + at_level)]
    for k, (i, j) in enumerate(cells):
        if k < constants:
            mats[:, i, j] = rng.choice([0.0, 0.3, -0.7])
        else:
            mats[rng.integers(len(mats)), i, j] = rng.choice([level, -level])
    if kind != "asymmetric":
        lower = np.tri(p, k=-1, dtype=bool)
        mats[:, lower.T] = mats.transpose(0, 2, 1)[:, lower.T]
        diag = np.arange(p)
        if kind == "symmetric":
            mats[:, diag, diag] = 1.0
        else:
            mats[:, diag, diag] = rng.uniform(0.5, 2.0, (len(mats), p))
    return mats


def pipeline_columns(mats, metric, level):
    """The flat columns that the pipeline's rows must hold, by its stated rule."""
    n, p = mats.shape[:2]
    flat = mats.reshape(n, -1)
    diagonal = np.diagonal(mats, axis1=1, axis2=2)
    symmetric = (diagonal == diagonal[0]).all() and all(
        np.array_equal(m, m.T) for m in mats
    )
    lower = np.flatnonzero(np.tri(p, k=-1, dtype=bool))
    if metric is Metric.CORR_OF_CORR:
        return lower, symmetric
    cols = lower if symmetric else np.arange(p * p)
    off = ~np.eye(p, dtype=bool).ravel()[cols]
    v = flat[:, cols]
    live = (v.max(axis=0) != v.min(axis=0)) & ~(
        off & (np.abs(v).max(axis=0) <= (level or 0.0))
    )
    return cols[live], symmetric


def same_stats(a, b):
    return all(
        (x is None and y is None) or np.array_equal(x, y) for x, y in zip(a, b)
    )


class TestColumnPipeline:
    @settings(max_examples=300, deadline=None)
    @given(
        sizes=group_sizes,
        p=st.integers(2, 5),
        kind=st.sampled_from(["symmetric", "varying diagonal", "asymmetric"]),
        metric=st.sampled_from([Metric.L2_VEC, Metric.L1_VEC, Metric.CORR_OF_CORR]),
        level=st.sampled_from([None, 0.0, 0.1, 0.3, 0.6, "above"])
        | st.floats(0.0, 1.0),
        constants=st.integers(0, 3),
        at_level=st.integers(0, 3),
        seed=seeds,
    )
    def test_against_soft_threshold_and_the_matrix_path(
        self, sizes, p, kind, metric, level, constants, at_level, seed
    ):
        rng = np.random.default_rng(seed)
        above = level == "above"
        level = 0.95 if above else level
        mats = draw_matrix_stack(rng, sizes, p, kind, constants, at_level, level or 0.0)
        if above:  # every off-diagonal entry below the level
            off = ~np.eye(p, dtype=bool)
            mats[:, off] *= 0.9 / max(np.abs(mats[:, off]).max(), 1.0)
        labels = tuple(f"x{i}" for i in range(len(sizes)))
        sample = GroupedSample(mats, sizes, labels, PayloadKind.MATRIX)
        n = len(mats)
        spec = DistanceSpec(metric, threshold=level)
        if metric is Metric.CORR_OF_CORR and p == 2:  # refused once, before any level
            message = "^correlation-of-correlations needs matrices of size 3x3 or larger$"
            with pytest.raises(DegenerateInputError, match=message):
                _MatrixColumns(sample, metric)
            with pytest.raises(DegenerateInputError, match=message):
                block_stats(sample, spec)
            with pytest.raises(DegenerateInputError, match=message):
                compute_distance_matrix(sample, spec)
            return

        columns = _MatrixColumns(sample, metric)
        rows, fractions = columns.rows(level)
        shrunk, want_fractions = soft_threshold(mats, level or 0.0)
        cols, symmetric = pipeline_columns(mats, metric, level)
        assert columns.weight == (2.0 if symmetric else 1.0)
        # bit for bit up to the sign of zero, which array_equal ignores
        assert np.array_equal(rows, shrunk.reshape(n, -1)[:, cols])
        if level is None:
            assert fractions is None
        else:
            assert fractions.tolist() == want_fractions.tolist()

        try:
            exact = _block_sums(compute_distance_matrix(sample, spec))
        except DegenerateInputError as exc:  # corr of constant triangles
            message = f"^{re.escape(str(exc))}$"
            with pytest.raises(DegenerateInputError, match=message):
                columns.block_stats(rows)
            with pytest.raises(DegenerateInputError, match=message):
                block_stats(sample, spec)
            return
        fast = columns.block_stats(rows)
        # the sweep's level and the estimate's threshold give the same bits
        assert same_stats(fast, block_stats(sample, spec))
        if level in (None, 0.0):
            other = DistanceSpec(metric, threshold=0.0 if level is None else None)
            assert same_stats(fast, block_stats(sample, other))
        if _between_sum(exact) == 0.0:
            assert _between_sum(fast) == 0.0
            assert not np.any(fast.within)
            with pytest.raises(DegenerateDistancesError):
                dbicc_point(fast)
            return
        assert_same_analysis(fast, exact, metric)

    @pytest.mark.parametrize("metric", [Metric.L2_VEC, Metric.L1_VEC])
    def test_a_level_that_leaves_no_column_gives_zero_sums(self, rng, metric):
        mats = np.array([rand_symmetric(rng, 4, 0.2) for _ in range(6)])
        sample = GroupedSample(mats, [2, 2, 2], ("a", "b", "c"), PayloadKind.MATRIX)
        columns = _MatrixColumns(sample, metric)
        rows, fractions = columns.rows(0.5)
        assert rows.shape == (6, 0) and fractions.tolist() == [1.0] * 6
        stats = block_stats(sample, DistanceSpec(metric, threshold=0.5))
        assert not np.any(stats.within) and _between_sum(stats) == 0.0
        with pytest.raises(DegenerateDistancesError,
                           match="^all between-individual distances are zero"):
            dbicc_point(stats)

    def test_levels_reuse_one_buffer(self, rng):
        mats = np.array([rand_symmetric(rng, 5, 0.6) for _ in range(6)])
        sample = GroupedSample(mats, [2, 2, 2], ("a", "b", "c"), PayloadKind.MATRIX)
        columns = _MatrixColumns(sample, Metric.L2_VEC)
        first = columns.rows()[0]
        buffer = columns.workspace._buffer
        # no level leaves more columns than no level: none grows the buffer
        for level in (0.1, 0.2, 0.0):
            rows = columns.rows(level)[0]
            assert 0 < rows.shape[1] <= first.shape[1]
            assert np.shares_memory(rows, first)
            assert columns.workspace._buffer is buffer

    def test_one_asymmetric_entry_keeps_every_entry(self, rng):
        mats = np.array([rand_symmetric(rng, 4, 0.5) for _ in range(6)])
        sample = GroupedSample(mats, [2, 2, 2], ("a", "b", "c"), PayloadKind.MATRIX)
        assert _MatrixColumns(sample, Metric.L2_VEC).weight == 2.0
        mats[3, 0, 2] += 0.25  # one entry of one matrix loses its mirror image
        sample = GroupedSample(mats, [2, 2, 2], ("a", "b", "c"), PayloadKind.MATRIX)
        columns = _MatrixColumns(sample, Metric.L2_VEC)
        assert columns.weight == 1.0
        assert columns.values.shape == (6, 16)
        exact = _block_sums(compute_distance_matrix(sample, Metric.L2_VEC))
        assert_same_analysis(block_stats(sample, Metric.L2_VEC), exact, Metric.L2_VEC)

    def test_series_compare_only_their_lower_triangle(self, rng):
        series = rng.standard_normal((4, 30, 5))
        sample = GroupedSample(series, [2, 2], ("a", "b"), PayloadKind.TIMESERIES)
        columns = _MatrixColumns(sample, Metric.L2_VEC)
        assert columns.weight == 2.0
        assert columns.values.shape == (4, 10)


def rand_symmetric(rng, p, scale):
    """A symmetric matrix of unit diagonal, off-diagonal entries below ``scale``."""
    m = rng.uniform(-scale, scale, (p, p))
    m = np.tril(m, -1)
    m = m + m.T
    np.fill_diagonal(m, 1.0)
    return m


def _indicator_product(rows, sizes):
    """Each group's later rows summed as the sparse 0/1 indicator product."""
    import scipy.sparse

    n, n_groups = rows.shape[0], sizes.size
    later = np.ones(n, dtype=bool)
    later[np.concatenate(([0], np.cumsum(sizes)[:-1]))] = False
    indicator = scipy.sparse.csr_array(
        (np.ones(n - n_groups), np.flatnonzero(later),
         np.concatenate(([0], np.cumsum(sizes - 1)))),
        shape=(n_groups, n),
    )
    return indicator @ rows


@settings(max_examples=300, deadline=None)
@given(
    # short groups, and groups taller than 64 rows
    sizes=st.lists(st.integers(1, 12) | st.integers(65, 80), min_size=1, max_size=8),
    equal=st.booleans(),
    width=st.integers(1, 4),
    offset=st.floats(-1e4, 1e4),
    zero_columns=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_later_row_sums_are_the_indicator_product_bit_for_bit(
    sizes, equal, width, offset, zero_columns, seed
):
    sizes = np.array(sizes[:1] * len(sizes) if equal else sizes)
    rng = np.random.default_rng(seed)
    rows = offset + rng.standard_normal((int(sizes.sum()), width + zero_columns))
    # columns of +0.0 and -0.0 only: a sum that starts from a zero row is +0.0
    rows[:, width:] = rng.choice([0.0, -0.0], (rows.shape[0], zero_columns))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    got = dbicc.core._later_row_sums(rows, sizes, starts)
    assert got.tobytes() == _indicator_product(rows, sizes).tobytes()
