import inspect
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dbicc.bootstrap
import dbicc.core
from dbicc import (
    DegenerateDistancesError,
    DistanceMatrix,
    InsufficientDataError,
    InsufficientGroupsError,
    InsufficientReplicatesError,
    GroupedSample,
    Metric,
    NonFiniteError,
    PayloadKind,
    ParameterError,
    TrueScorePopulation,
    bootstrap_dbicc,
    bootstrap_dbicc_pair,
    block_stats,
    build_grouped_sample,
    compute_distance_matrix,
    dbicc_point,
    gen_gaussian_sample,
    percentile_ci,
)
from dbicc.bootstrap import (
    _block_sums,
    _draw_indices,
    _median,
    _replicates,
    _ReplicateTerms,
    _Workspace,
)
from conftest import bootstrap_draw, vector_sample


def three_individual_matrix():
    rows = [
        ("A", 0, [0.0]),
        ("A", 1, [2.0]),
        ("B", 0, [0.0]),
        ("B", 1, [2.0]),
        ("C", 0, [10.0]),
        ("C", 1, [12.0]),
    ]
    return compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)


def oracle_replicate(dm, picks):
    """Definitional bootstrap estimates: rebuild the resampled matrix blocks."""
    bounds = np.cumsum(dm.group_sizes)
    blocks = [np.arange(end - size, end) for size, end in zip(dm.group_sizes, bounds)]
    sq = dm.values**2
    w_num = w_den = 0.0
    for g in picks:
        rows = blocks[g]
        for ai in range(len(rows)):
            for bi in range(ai + 1, len(rows)):
                w_num += sq[rows[ai], rows[bi]]
                w_den += 1
    results = {}
    for corrected in (False, True):
        b_num = b_den = 0.0
        for i1 in range(len(picks)):
            for i2 in range(i1 + 1, len(picks)):
                if corrected and picks[i1] == picks[i2]:
                    continue
                for a in blocks[picks[i1]]:
                    for b in blocks[picks[i2]]:
                        b_num += sq[a, b]
                        b_den += 1
        if w_den > 0 and b_den > 0 and b_num > 0:
            results[corrected] = 1.0 - (w_num / w_den) / (b_num / b_den)
        else:
            results[corrected] = None
    return results


class TestResampleIndividuals:
    def test_pinned_sequence(self):
        assert bootstrap_draw(6, 1, 20240717)[0].tolist() == [5, 0, 0, 4, 5, 0]

    def test_frequencies_uniform(self):
        draws = bootstrap_draw(4, 25000, 99).ravel()
        freq = np.bincount(draws, minlength=4) / draws.size
        assert np.all(np.abs(freq - 0.25) < 0.005)  # 2% of 0.25


class TestPercentileCi:
    def test_linear_interpolation_convention(self):
        low, high = percentile_ci(np.arange(1.0, 101.0), 0.95)
        assert low == pytest.approx(3.475, abs=1e-12)
        assert high == pytest.approx(97.525, abs=1e-12)

    def test_constant_list(self):
        assert percentile_ci([2.0, 2.0, 2.0], 0.9) == (2.0, 2.0)

    def test_symmetric_about_median(self):
        vals = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        low, high = percentile_ci(vals, 0.8)
        assert low + high == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            percentile_ci([], 0.95)
        with pytest.raises(InsufficientDataError):
            percentile_ci([1.0], 0.95)
        with pytest.raises(ParameterError):
            percentile_ci([1.0, 2.0], 1.5)

    @pytest.mark.parametrize(
        "n, level, index, g",
        [
            (5, 0.5, 1.0, 0.0),  # (n - 1) * q is an integer
            (9, 0.75, 1.0, 0.0),
            (5, 0.25, 1.5, 0.5),  # the weight is 0.5 exactly
            (1200, 0.95, 29.975, 0.975),  # the coverage runs' weights
        ],
    )
    def test_integral_index_and_upper_weight_match_numpy(self, rng, n, level, index, g):
        q = (1.0 - level) / 2.0
        assert ((n - 1) * q, (n - 1) * q - math.floor((n - 1) * q)) == pytest.approx(
            (index, g), abs=1e-9
        )
        for vals in (rng.standard_normal(n), np.round(rng.standard_normal(n), 1)):
            assert_quantile_bits(vals, level)


_SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]


def bits(x):
    """The float's bit pattern; every NaN is one pattern."""
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def assert_quantile_bits(vals, level):
    """percentile_ci is np.quantile bit for bit, up to the sign of a zero bound.

    A zero bound may differ in sign where the sample holds both 0.0 and
    -0.0: np.sort and numpy's partition order the two zeros differently.
    """
    q = (1.0 - level) / 2.0
    with np.errstate(all="ignore"):  # numpy's (b - a) * g of infinities
        expected = np.quantile(vals, [q, 1.0 - q]).tolist()
    got = percentile_ci(vals, level)
    flat = np.ravel(vals)
    both_zeros = np.any((flat == 0) & np.signbit(flat)) and np.any(
        (flat == 0) & ~np.signbit(flat)
    )
    for bound, want in zip(got, expected):
        if both_zeros and want == 0.0:
            assert bound == 0.0
        else:
            assert bits(bound) == bits(want)


@st.composite
def _estimates(draw):
    """Samples of 2 to 2,500 values: ties, infinities, NaNs and signed zeros."""
    n = draw(st.integers(2, 2500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.standard_normal(n) * 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):  # ties
        vals = np.round(vals, draw(st.integers(0, 2)))
    specials = draw(st.lists(st.sampled_from(_SPECIALS), max_size=6))
    at = rng.integers(0, n, size=len(specials))
    vals[at] = specials
    if draw(st.booleans()) and n % 2 == 0:  # 2-D input is flattened
        vals = vals.reshape(2, n // 2)
    return vals


_LEVELS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 1.0 - 2.0**-53, 2.0**-30]),
    # dyadic levels: (n - 1) * q is an integer wherever 2**k divides n - 1
    st.integers(1, 2**10 - 1).map(lambda k: k / 2**10),
)


class TestOrderStatisticBits:
    @settings(max_examples=300, deadline=None)
    @given(vals=_estimates(), level=_LEVELS)
    @example(vals=np.array([0.0, 1.0, math.inf]), level=0.5)
    @example(vals=np.array([-math.inf, 0.0, 1.0]), level=0.9)
    @example(vals=np.array([1.0, 2.0, math.nan, 3.0]), level=0.95)
    @example(vals=np.array([-0.0, -0.0, 1.0]), level=1.0 - 2.0**-53)
    @example(vals=np.array([0.1, 0.1, 0.7]), level=0.5)  # g = 0.75: 0.39999999999999997
    def test_percentile_ci_is_np_quantile(self, vals, level):
        assert_quantile_bits(vals, level)

    @settings(max_examples=300, deadline=None)
    @given(vals=_estimates())
    @example(vals=np.array([-0.0]))
    @example(vals=np.array([-0.0, -0.0]))
    @example(vals=np.array([-math.inf, math.inf, 1.0, 2.0]))
    @example(vals=np.array([1.0, math.nan, 2.0]))
    def test_median_is_np_median(self, vals):
        vals = vals.ravel()
        with np.errstate(all="ignore"):  # numpy's mean of -inf and inf, or 1e308s
            expected = float(np.median(vals))
        assert bits(_median(vals)) == bits(expected)


class TestReplicateMechanics:
    def test_distinct_picks_make_correction_a_noop(self):
        dm = three_individual_matrix()
        picks = np.array([[2, 0, 1]])
        naive, corrected, nv, cv = _ReplicateTerms(_block_sums(dm)).estimates(picks)
        assert nv[0] and cv[0]
        assert naive[0] == corrected[0]  # bitwise: same sums, no excluded pairs

    def test_hand_enumeration_with_duplicates(self):
        # picks (A, A, C): naive keeps the duplicated A-block pair, whose
        # cross entries {0,4,4,0} drag the between mean down
        dm = three_individual_matrix()
        picks = np.array([[0, 0, 2]])
        naive, corrected, nv, cv = _ReplicateTerms(_block_sums(dm)).estimates(picks)
        assert nv[0] and cv[0]
        assert naive[0] == pytest.approx(97.0 / 103.0, rel=1e-12)
        assert corrected[0] == pytest.approx(49.0 / 51.0, rel=1e-12)
        oracle = oracle_replicate(dm, [0, 0, 2])
        assert naive[0] == pytest.approx(oracle[False], rel=1e-12)
        assert corrected[0] == pytest.approx(oracle[True], rel=1e-12)

    def test_matches_definitional_oracle_on_random_instances(self, rng):
        dm = compute_distance_matrix(vector_sample(rng, [2, 3, 1, 2], 3), Metric.L2_VEC)
        picks = rng.integers(0, 4, size=(40, 4))
        naive, corrected, nv, cv = _ReplicateTerms(_block_sums(dm)).estimates(picks)
        for r in range(40):
            oracle = oracle_replicate(dm, picks[r].tolist())
            for vals, valid, key in ((naive, nv, False), (corrected, cv, True)):
                if oracle[key] is None:
                    assert not valid[r]
                else:
                    assert valid[r]
                    assert vals[r] == pytest.approx(oracle[key], rel=1e-10)

    def test_all_identical_picks_degenerate_for_corrected_only(self):
        dm = three_individual_matrix()
        picks = np.array([[1, 1, 1]])
        naive, corrected, nv, cv = _ReplicateTerms(_block_sums(dm)).estimates(picks)
        assert nv[0] and not cv[0]
        assert np.isnan(corrected[0])

    def test_block_sums_match_squared_values(self, rng):
        dm = compute_distance_matrix(vector_sample(rng, [2, 3, 2], 3), Metric.L2_VEC)
        sizes, within, cross, means = _block_sums(dm)[:4]
        sq = dm.values**2
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        for g1 in range(3):
            r1 = slice(starts[g1], starts[g1] + sizes[g1])
            assert within[g1] == pytest.approx(np.triu(sq[r1, r1]).sum(), rel=1e-12)
            for g2 in range(3):
                r2 = slice(starts[g2], starts[g2] + sizes[g2])
                assert cross[g1, g2] == pytest.approx(sq[r1, r2].sum(), rel=1e-12)


    @pytest.mark.parametrize("chunk_rows", [1, 7, None])
    def test_chunked_block_sums_match_whole_matrix_reduceat(
        self, rng, monkeypatch, chunk_rows
    ):
        # blocks of 1..19 rows, so chunks hold several blocks or one block
        # larger than the chunk
        sizes = np.concatenate(([1], rng.integers(1, 20, size=60), [1]))
        dm = compute_distance_matrix(vector_sample(rng, sizes, 3), Metric.L2_VEC)
        if chunk_rows is not None:
            monkeypatch.setattr(
                dbicc.core, "_BLOCK_SUM_BYTES", 8 * dm.n_total * chunk_rows
            )
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        squared = dm.values * dm.values
        cross = np.add.reduceat(np.add.reduceat(squared, starts, axis=0), starts, axis=1)
        got_sizes, got_within, got_cross, _ = _block_sums(dm)[:4]
        assert np.array_equal(got_sizes, sizes)
        assert np.array_equal(got_cross, cross)
        assert np.array_equal(got_within, np.diag(cross) / 2.0)


def _matrix(values, group_sizes):
    return DistanceMatrix(np.asarray(values, dtype=float), group_sizes)


class TestBootstrapDbicc:
    @pytest.mark.parametrize(
        "dm, error",
        [
            (_matrix([[0.0, 1.0], [1.0, 0.0]], [2]), InsufficientGroupsError),
            (_matrix([[0.0]], [1]), InsufficientGroupsError),
            (_matrix([[0.0, 1.0], [1.0, 0.0]], [1, 1]), InsufficientReplicatesError),
            (_matrix(np.zeros((4, 4)), [2, 2]), DegenerateDistancesError),
            (
                _matrix(
                    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                    [2, 2],
                ),
                DegenerateDistancesError,
            ),
        ],
    )
    def test_preconditions_raise_as_point_estimate(self, dm, error):
        with pytest.raises(error):
            dbicc_point(dm)
        with pytest.raises(error):
            bootstrap_dbicc(dm, 200, seed=1)
        with pytest.raises(error):
            bootstrap_dbicc_pair(dm, 200, seed=1)

    @pytest.mark.filterwarnings("error")  # a bad level fails before the warning
    def test_bad_level_fails_before_the_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("replicates were drawn")

        monkeypatch.setattr(dbicc.bootstrap, "_draw_indices", no_draw)
        for call in (bootstrap_dbicc, bootstrap_dbicc_pair):
            with pytest.raises(ParameterError, match=r"level must lie in \(0, 1\)"):
                call(three_individual_matrix(), 50, level=1.5, seed=1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_matrix_raises_non_finite(self):
        dm = _matrix(np.full((4, 4), 1e200) - np.diag(np.full(4, 1e200)), [2, 2])
        with pytest.raises(NonFiniteError):
            dbicc_point(dm)
        with pytest.raises(NonFiniteError):
            bootstrap_dbicc(dm, 200, seed=1)
        with pytest.raises(NonFiniteError):
            bootstrap_dbicc_pair(dm, 200, seed=1)

    def test_deterministic_given_seed(self):
        dm = three_individual_matrix()
        r1 = bootstrap_dbicc(dm, 300, corrected=True, seed=123)
        r2 = bootstrap_dbicc(dm, 300, corrected=True, seed=123)
        assert np.array_equal(r1.replicate_estimates, r2.replicate_estimates)
        assert (r1.ci_low, r1.ci_high) == (r2.ci_low, r2.ci_high)
        assert r1.n_degenerate == r2.n_degenerate

    def test_pair_equals_two_single_calls(self):
        dm = three_individual_matrix()
        naive, corrected = bootstrap_dbicc_pair(dm, 250, seed=77)
        single_naive = bootstrap_dbicc(dm, 250, corrected=False, seed=77)
        single_corr = bootstrap_dbicc(dm, 250, corrected=True, seed=77)
        assert np.array_equal(naive.replicate_estimates, single_naive.replicate_estimates)
        assert np.array_equal(
            corrected.replicate_estimates, single_corr.replicate_estimates
        )
        assert (naive.ci_low, naive.ci_high) == (single_naive.ci_low, single_naive.ci_high)

    def test_seed_generated_and_recorded_when_absent(self):
        dm = three_individual_matrix()
        r1 = bootstrap_dbicc(dm, 150, seed=None)
        r2 = bootstrap_dbicc(dm, 150, seed=r1.seed)
        assert np.array_equal(r1.replicate_estimates, r2.replicate_estimates)

    def test_small_replicate_count_warns(self):
        dm = three_individual_matrix()
        for call in (bootstrap_dbicc, bootstrap_dbicc_pair):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = inspect.currentframe().f_lineno + 1  # the warning points here
                call(dm, 50, seed=1)
            sites = [(w.category, w.filename, w.lineno) for w in caught]
            assert sites == [(UserWarning, __file__, line)]

    @pytest.mark.parametrize("n_boot, warned", [(99, 1), (100, 0)])
    def test_the_warning_starts_below_100_replicates(self, n_boot, warned):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_dbicc(three_individual_matrix(), n_boot, seed=1)
        assert [str(w.message) for w in caught] == [
            f"n_boot={n_boot} is small; percentile intervals are unstable below a few "
            "hundred replicates"
        ] * warned

    def test_rho_hat_is_the_point_estimate_of_the_resampled_sums(self, rng):
        sample = vector_sample(rng, [3, 2, 4, 2, 3], 3)
        stats = block_stats(sample, Metric.L2_VEC)
        dm = compute_distance_matrix(sample, Metric.L2_VEC)
        for source, sums in ((stats, stats), (dm, _block_sums(dm))):
            want = dbicc_point(sums).rho_hat
            single = bootstrap_dbicc(source, 200, seed=3)
            naive, corrected = bootstrap_dbicc_pair(source, 200, seed=3)
            assert single.rho_hat == naive.rho_hat == corrected.rho_hat == want
        # a matrix's ρ̂ from its block sums is the matrix path's up to rounding
        assert math.isclose(single.rho_hat, dbicc_point(dm).rho_hat, rel_tol=1e-12)

    def test_invalid_replicate_count(self):
        with pytest.raises(ParameterError):
            bootstrap_dbicc(three_individual_matrix(), 0, seed=1)

    @pytest.mark.filterwarnings("error")  # no small-B warning before the error
    def test_one_replicate_fails_before_the_block_sums(self, monkeypatch):
        def no_sums(*args):
            raise AssertionError("block sums were taken")

        monkeypatch.setattr(dbicc.bootstrap, "_block_sums", no_sums)
        for call in (bootstrap_dbicc, bootstrap_dbicc_pair):
            with pytest.raises(InsufficientDataError) as err:
                call(three_individual_matrix(), 1, seed=1)
            assert str(err.value) == "need at least 2 estimates for an interval, got 1"

    def test_result_invariants(self):
        dm = three_individual_matrix()
        res = bootstrap_dbicc(dm, 500, corrected=True, level=0.9, seed=5)
        assert res.ci_low <= res.ci_high
        assert res.replicate_estimates.size == res.n_boot - res.n_degenerate
        assert res.level == 0.9
        assert res.corrected is True

    def test_correction_raises_between_msd_when_duplicates_present(self):
        # Gaussian data with clear within < between separation
        pop = TrueScorePopulation(np.eye(2), 0.25 * np.eye(2), 10, 4)
        sample = gen_gaussian_sample(pop, np.random.default_rng(321))
        dm = compute_distance_matrix(sample, Metric.L2_VEC)
        picks = np.random.default_rng(654).integers(0, 10, size=(500, 10))
        comp = _ReplicateTerms(_block_sums(dm)).components(picks)
        has_dupes = np.array([len(set(row)) < len(row) for row in picks])
        msd_w = comp["within_num"] / comp["within_den"]
        naive_b = comp["naive_num"] / comp["naive_den"]
        corrected_b = comp["corrected_num"] / comp["corrected_den"]
        eligible = has_dupes & (msd_w < naive_b) & (comp["corrected_den"] > 0)
        assert eligible.any()
        assert np.all(corrected_b[eligible] >= naive_b[eligible])


class TestReplicateBlocks:
    """The bootstrap draws, counts and reduces its replicates in blocks of rows."""

    @staticmethod
    def stats(dim, metric):
        """41 individuals (an odd count) of 3 and 2 replicates."""
        sample = vector_sample(np.random.default_rng(3), [3, 2] * 20 + [2], dim)
        return block_stats(sample, metric)

    # The means when p = 5, the I-by-I cross when p = 60 or under l1.  Of
    # 100 replicates: blocks of 1 row, blocks of 7 rows with a last block
    # of 2, and one block of all rows.
    @pytest.mark.parametrize(
        "dim, metric",
        [(5, Metric.L2_VEC), (60, Metric.L2_VEC), (5, Metric.L1_VEC)],
        ids=["means", "cross", "l1"],
    )
    @pytest.mark.parametrize(
        "rows, lengths", [(1, [1] * 100), (7, [7] * 14 + [2]), (100, [100])],
        ids=["1", "7", "all"],
    )
    def test_blocks_draw_the_same_indices_and_estimates(
        self, monkeypatch, dim, metric, rows, lengths
    ):
        n_individuals, n_boot, seed = 41, 100, 2024
        stats = self.stats(dim, metric)
        assert (stats.cross is None) == (dim == 5 and metric is Metric.L2_VEC)
        whole_draw = np.random.default_rng(seed).integers(
            0, n_individuals, size=(n_boot, n_individuals)
        )
        terms = _ReplicateTerms(stats)
        whole = terms.components(whole_draw)
        whole_estimates = terms.estimates(whole_draw)

        budget = 8 * n_individuals * rows
        monkeypatch.setattr(dbicc.bootstrap, "_REPLICATE_BYTES", budget)
        blocks = list(_draw_indices(n_individuals, n_boot, seed))
        assert [len(block) for block in blocks] == lengths
        assert np.array_equal(np.concatenate(blocks), whole_draw)

        got_seed, rho_hat, replicates = _replicates(stats, n_boot, 0.95, seed)
        assert got_seed == seed and rho_hat == dbicc_point(stats).rho_hat
        (naive, naive_valid), (corrected, corrected_valid) = replicates.values()
        # in the order of estimates()
        got = (naive, corrected, naive_valid, corrected_valid)
        if len(blocks) == 1:  # exactly the whole draw's pass
            for values, want in zip(got, whole_estimates):
                assert np.array_equal(values, want, equal_nan=True)
        # the loop keeps each block's estimates as they are, bit for bit
        per_block = [terms.estimates(block) for block in blocks]
        for values, parts in zip(got, zip(*per_block)):
            assert np.array_equal(values, np.concatenate(parts), equal_nan=True)
        # the products round per block: numerators move by a few ulps at
        # most, the integer denominators and every validity flag not at all
        for values, want in zip(got[2:], whole_estimates[2:]):
            assert np.array_equal(values, want)
        blocked = [terms.components(block) for block in blocks]
        for key, want in whole.items():
            values = np.concatenate([comp[key] for comp in blocked])
            if key.endswith("_den"):
                assert np.array_equal(values, want)
            else:
                np.testing.assert_allclose(values, want, rtol=1e-13, atol=0)

    def test_memory_does_not_grow_with_the_replicate_count(self):
        # 3,000 individuals of 2 replicates, p = 20: the means form.  The
        # whole (B, I) draw alone would take 229 MiB at B = 10,000; the
        # block loop peaks at about 4.7 MiB.
        rng = np.random.default_rng(5)
        values = np.repeat(rng.standard_normal((3000, 20)), 2, axis=0)
        values += rng.standard_normal(values.shape)
        sample = GroupedSample(
            values=values, group_sizes=[2] * 3000, labels=tuple(range(3000)),
            payload_kind=PayloadKind.VECTOR,
        )
        stats = block_stats(sample, Metric.L2_VEC)
        assert stats.cross is None
        tracemalloc.start()
        try:
            result = bootstrap_dbicc(stats, 10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_boot == 10_000
        assert peak < 16 * 2**20


class TestReplicateWorkspace:
    """Replicate blocks are computed in one reused workspace of buffers."""

    @staticmethod
    def stats(sizes, dim, metric=Metric.L2_VEC):
        sample = vector_sample(np.random.default_rng(len(sizes)), sizes, dim)
        return block_stats(sample, metric)

    # 41 individuals take blocks of 7 rows and a last block of 2, 5
    # individuals a block of 57 rows and a last block of 43: narrow first,
    # the buffers grow for the wide calls; wide first, they stay.
    @pytest.mark.parametrize("first", ["wide", "narrow"])
    def test_shared_workspace_gives_the_bits_of_fresh_ones(self, monkeypatch, first):
        wide = [self.stats([3, 2] * 20 + [2], 5), self.stats([3, 2] * 20 + [2], 60)]
        narrow = [self.stats([2, 3, 2, 2, 4], 3), self.stats([2, 3, 2, 2, 4], 3, Metric.L1_VEC)]
        calls = [*wide, *narrow] if first == "wide" else [*narrow, *wide]
        calls += calls  # alternate once more, on buffers already grown
        monkeypatch.setattr(dbicc.bootstrap, "_REPLICATE_BYTES", 8 * 41 * 7)
        workspace = _Workspace()
        shared = [_replicates(stats, 100, 0.95, 9, workspace) for stats in calls]
        # every result is kept until the last call: none is a buffer view
        for stats, (seed, rho_hat, replicates) in zip(calls, shared):
            fresh_seed, fresh_rho_hat, fresh = _replicates(stats, 100, 0.95, 9)
            assert (seed, rho_hat) == (fresh_seed, fresh_rho_hat)
            for corrected in (False, True):
                for values, want in zip(replicates[corrected], fresh[corrected]):
                    assert np.array_equal(values, want, equal_nan=True)

    def test_components_of_a_shared_workspace_are_new_arrays(self):
        stats = [self.stats([3, 2] * 20 + [2], 5), self.stats([2, 3, 2, 2, 4], 3)]
        picks = [bootstrap_draw(41, 9, 1), bootstrap_draw(5, 70, 2)]
        workspace = _Workspace()
        shared = [_ReplicateTerms(s, workspace).components(p) for s, p in zip(stats, picks)]
        shared.append(_ReplicateTerms(stats[0], workspace).components(picks[0][:4]))
        for comp, s, p in zip(shared, stats + stats[:1], picks + [picks[0][:4]]):
            fresh = _ReplicateTerms(s).components(p)
            assert comp.keys() == fresh.keys()
            for key, want in fresh.items():
                assert np.array_equal(comp[key], want)

    def test_index_rows_are_only_read(self):
        stats = self.stats([3, 2] * 20 + [2], 5)
        picks = bootstrap_draw(41, 50, 4)
        want = picks.copy()
        picks.flags.writeable = False  # a write into them raises
        workspace = _Workspace()
        for terms in (_ReplicateTerms(stats, workspace), _ReplicateTerms(stats, workspace),
                      _ReplicateTerms(stats)):
            terms.components(picks)
            terms.estimates(picks)
        assert np.array_equal(picks, want)

    def test_a_warmed_workspace_allocates_no_block_buffers(self):
        # 40 individuals, B = 1,200: one block of 375 KiB of indices.  The
        # second call allocates its draw and bincount's counts, about 0.74
        # MiB; allocating the flat indices, the float counts and the
        # squares afresh took 1.56 MiB.
        pop = TrueScorePopulation(np.eye(2), np.eye(2), 40, 4)
        stats = block_stats(gen_gaussian_sample(pop, np.random.default_rng(1)), Metric.L2_VEC)
        workspace = _Workspace()
        bootstrap_dbicc_pair(stats, 1200, seed=1, _workspace=workspace)
        tracemalloc.start()
        try:
            naive, corrected = bootstrap_dbicc_pair(stats, 1200, seed=2, _workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert naive.n_boot == corrected.n_boot == 1200
        assert naive.rho_hat == corrected.rho_hat == dbicc_point(stats).rho_hat
        assert peak < 2**20

    def test_a_block_holds_three_arrays_of_its_size(self):
        # 3,000 individuals, B = 200: five blocks of about 1 MiB of indices.
        # A block holds its draw, the workspace's buffer and bincount's array,
        # and is freed before the next is drawn.  The flat indices in a buffer
        # of their own, and the spent block kept while the next was drawn,
        # took 4.52 MiB.
        stats = self.stats([3] * 3000, 20)
        _replicates(stats, 200, 0.95, 1)
        tracemalloc.start()
        try:
            _replicates(stats, 200, 0.95, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
