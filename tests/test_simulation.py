import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbicc.bootstrap
import dbicc.core
import dbicc.simulation

from dbicc import (
    FactorizationError,
    InsufficientDataError,
    Metric,
    ParameterError,
    PayloadKind,
    TrueScorePopulation,
    block_stats,
    cov_error_spread,
    dbicc_point,
    gen_gaussian_sample,
    gen_mvn_timeseries,
    gen_spd_population,
    run_coverage_experiment,
    run_point_experiment,
    run_sb_experiment,
)


def _sample_cov(x):
    """Sample covariance of one series by the runners' kernel, which centres a copy."""
    return dbicc.simulation._sample_cov_batch(np.array(x, dtype=float)[None])[0]


def _sample_covs(sigmas, n_timepoints, ar_coeff, n_replicates, seed):
    """The sample covariances that ``_sb_worker`` draws around ``sigmas``."""
    chols = np.linalg.cholesky(np.stack(sigmas))
    return dbicc.simulation._sample_covs(
        chols, ar_coeff, n_timepoints, n_replicates, np.random.default_rng(seed)
    )


class TestTrueScorePopulation:
    def test_rejects_non_spd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(FactorizationError):
            TrueScorePopulation(bad, np.eye(2), 10, 2)
        with pytest.raises(FactorizationError):
            TrueScorePopulation(np.eye(2), np.zeros((2, 2)), 10, 2)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ParameterError):
            TrueScorePopulation(np.eye(2), np.eye(3), 10, 2)

    def test_rejects_no_replicates(self):
        with pytest.raises(ParameterError, match="need at least 1 replicate per individual"):
            TrueScorePopulation(np.eye(2), np.eye(2), 10, 0)

    @pytest.mark.parametrize("icc, noise", [(0.2, 4.0), (0.5, 1.0), (0.8, 0.25)])
    def test_the_runners_population_has_the_dbicc_it_is_given(self, icc, noise):
        pop = dbicc.simulation._gaussian_population(10, 4, icc, 2)
        assert np.array_equal(pop.score_cov, np.eye(2))
        assert pop.noise_cov == pytest.approx(noise * np.eye(2), rel=1e-15)
        score, error = np.trace(pop.score_cov), np.trace(pop.noise_cov)
        assert score / (score + error) == pytest.approx(icc, rel=1e-15)


class TestGenGaussianSample:
    def test_samples_share_the_populations_labels(self):
        pop = TrueScorePopulation(np.eye(2), np.eye(2), 12, 2)
        samples = [gen_gaussian_sample(pop, seed) for seed in (1, 2)]
        assert pop._labels == tuple(f"sim{i:04d}" for i in range(12))
        assert all(sample.labels is pop._labels for sample in samples)

    def test_structure(self):
        pop = TrueScorePopulation(np.eye(3), np.eye(3), 5, 2)
        sample = gen_gaussian_sample(pop, np.random.default_rng(0))
        assert sample.n_individuals == 5
        assert sample.group_sizes.tolist() == [2] * 5
        assert sample.payload_kind is PayloadKind.VECTOR
        assert sample.feature_dim == 3

    def test_seed_reproducibility(self):
        pop = TrueScorePopulation(np.eye(2), np.eye(2), 4, 3)
        s1 = gen_gaussian_sample(pop, np.random.default_rng(42))
        s2 = gen_gaussian_sample(pop, np.random.default_rng(42))
        assert np.array_equal(s1.values, s2.values)


class TestVarTimeseries:
    def test_iid_case_recovers_covariance(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        x = gen_mvn_timeseries(sigma, 100_000, 0.0, np.random.default_rng(7))
        sample = _sample_cov(x)
        rel = np.linalg.norm(sample - sigma, "fro") / np.linalg.norm(sigma, "fro")
        assert rel < 0.02

    def test_lag_one_autocorrelation(self):
        x = gen_mvn_timeseries(np.eye(1), 100_000, 0.9, np.random.default_rng(3))
        s = x[:, 0]
        r = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert abs(r - 0.9) < 0.02

    def test_stationary_marginal_covariance(self):
        phi = 0.6
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        x = gen_mvn_timeseries(sigma, 200_000, phi, np.random.default_rng(12))
        target = sigma / (1.0 - phi * phi)
        rel = np.linalg.norm(_sample_cov(x) - target, "fro") / np.linalg.norm(
            target, "fro"
        )
        assert rel < 0.03

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gen_mvn_timeseries(np.eye(2), 10, 1.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            gen_mvn_timeseries(np.eye(2), 1, 0.5, np.random.default_rng(0))
        with pytest.raises(FactorizationError):
            gen_mvn_timeseries(np.zeros((2, 2)), 10, 0.0, np.random.default_rng(0))


class TestSampleCovBatch:
    def test_identical_rows(self):
        x = np.tile([1.0, 2.0], (2, 1))
        assert np.array_equal(_sample_cov(x), np.zeros((2, 2)))

    def test_hand_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 10.0]])
        expected = np.array([[4.0, 8.0], [8.0, 52.0 / 3.0]])
        assert np.allclose(_sample_cov(x), expected, atol=1e-12)

    def test_unbiasedness_monte_carlo(self):
        sigma = np.array([[1.5, -0.4], [-0.4, 0.8]])
        chol = np.linalg.cholesky(sigma)
        rng = np.random.default_rng(31)
        draws = rng.standard_normal((10_000, 10, 2)) @ chol.T
        mean_cov = dbicc.simulation._sample_cov_batch(draws).mean(axis=0)
        rel = np.linalg.norm(mean_cov - sigma, "fro") / np.linalg.norm(sigma, "fro")
        assert rel < 0.02

    def test_each_of_a_stack_is_symmetric_and_close_to_np_cov(self):
        x = np.random.default_rng(6).standard_normal((4, 20, 3))
        covs = dbicc.simulation._sample_cov_batch(x.copy())
        assert np.array_equal(covs, covs.transpose(0, 2, 1))
        for cov, series in zip(covs, x):
            assert np.allclose(cov, np.cov(series, rowvar=False), rtol=1e-12, atol=0.0)


class TestSpdPopulation:
    def test_properties(self):
        mats = gen_spd_population(5, 6, np.random.default_rng(8))
        assert len(mats) == 5
        for m in mats:
            assert m.shape == (6, 6)
            assert np.allclose(m, m.T)
            assert np.all(np.diag(m) == 1.0)
            np.linalg.cholesky(m)  # SPD

    def test_deterministic(self):
        a = gen_spd_population(3, 4, np.random.default_rng(5))
        b = gen_spd_population(3, 4, np.random.default_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_df_too_small(self):
        with pytest.raises(ParameterError):
            gen_spd_population(2, 5, np.random.default_rng(0), wishart_df=3)

    def test_rejects_no_matrices(self):
        with pytest.raises(ParameterError, match="need at least 1 matrix, got 0"):
            gen_spd_population(0, 5, np.random.default_rng(0))


class TestCovErrorSpread:
    def test_analytic_identity_value(self):
        _, analytic = cov_error_spread(np.eye(2), 5, 1000, np.random.default_rng(0))
        assert analytic == pytest.approx(3.0, rel=1e-14)

    def test_monte_carlo_close_to_analytic(self):
        mc, analytic = cov_error_spread(np.eye(2), 5, 10_000, np.random.default_rng(17))
        assert abs(mc - analytic) / analytic < 0.05

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(0)
        _, a1 = cov_error_spread(np.eye(3), 10, 1000, rng)
        _, a2 = cov_error_spread(2.0 * np.eye(3), 10, 1000, rng)
        assert a2 == pytest.approx(4.0 * a1, rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            cov_error_spread(np.eye(4), 5, 10_000, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            cov_error_spread(np.eye(2), 10, 10, np.random.default_rng(0))


class TestConnectivitySample:
    def test_a_stack_with_a_non_spd_covariance_does_not_factor(self):
        stack = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(FactorizationError, match="^individual covariance is not"):
            dbicc.simulation._factor(stack, "individual covariance")

    def test_correlations_have_a_unit_diagonal_and_lie_in_the_unit_interval(self):
        rng = np.random.default_rng(4)
        sigmas = gen_spd_population(4, 5, rng)
        corrs = dbicc.simulation._corr_scale_batch(_sample_covs(sigmas, 60, 0.0, 2, rng))
        assert corrs.shape == (8, 5, 5)
        for mat in corrs:
            assert np.all(np.diag(mat) == 1.0)
            assert np.all(np.abs(mat) <= 1.0)


def _var1_reference(innov, ar_coeff):
    """Per-series Python loop of the AR(1) recursion, for bitwise checks."""
    out = np.empty_like(innov)
    for s in range(innov.shape[0]):
        out[s, 0] = innov[s, 0] / np.sqrt(1.0 - ar_coeff * ar_coeff)
        for t in range(1, innov.shape[1]):
            out[s, t] = ar_coeff * out[s, t - 1] + innov[s, t]
    return out


class TestBatchedGenerator:
    @pytest.mark.parametrize("phi", [0.0, 0.6])
    def test_bitwise_equal_to_the_one_series_generator(self, phi):
        sigmas = gen_spd_population(5, 6, np.random.default_rng(2))
        got = _sample_covs(sigmas, 40, phi, 3, 11)
        ref_rng = np.random.default_rng(11)
        ref = [
            _sample_cov(gen_mvn_timeseries(sigma, 40, phi, ref_rng))
            for sigma in sigmas
            for _ in range(3)
        ]
        assert np.array_equal(got, np.array(ref))
        assert np.array_equal(got, got.transpose(0, 2, 1))

    def test_chunk_budget_does_not_change_bits(self, monkeypatch):
        sigmas = gen_spd_population(7, 5, np.random.default_rng(3))
        sb_kwargs = dict(
            n_individuals=6, dim=4, m_grid=[10, 20, 40], ar_coeff=0.6, n_runs=2, seed=5
        )
        results = []
        # one individual per chunk, chunks of 3 with a short last one, all at once
        for budget in (8, 3 * 2 * 30 * 5 * 8, 1 << 40):
            monkeypatch.setattr(dbicc.simulation, "_SERIES_CHUNK_BYTES", budget)
            results.append(
                (_sample_covs(sigmas, 30, 0.6, 2, 8), run_sb_experiment(**sb_kwargs))
            )
        for values, report in results[1:]:
            assert np.array_equal(values, results[0][0])
            assert report == results[0][1]

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.95])
    def test_recursion_matches_per_series_loop(self, phi):
        innov = np.random.default_rng(4).standard_normal((4, 3, 25, 5))
        batched = innov.copy()
        # time on axis 0; the view writes through to batched
        dbicc.simulation._ar1_in_place(np.moveaxis(batched, -2, 0), phi)
        flat = innov.reshape(-1, 25, 5)
        expected = flat if phi == 0.0 else _var1_reference(flat, phi)
        assert np.array_equal(batched.reshape(-1, 25, 5), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        m=st.integers(2, 30),
        phi=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recursion_matches_reference_for_any_shape(self, lead, m, phi, seed):
        innov = np.random.default_rng(seed).standard_normal((m, *lead))
        series = innov.copy()
        dbicc.simulation._ar1_in_place(series, phi)
        # one series per trailing index, time on axis 1 for the reference
        per_series = np.moveaxis(innov.reshape(m, -1), 0, 1)
        expected = _var1_reference(per_series, phi)
        assert np.array_equal(np.moveaxis(series.reshape(m, -1), 0, 1), expected)

    @pytest.mark.parametrize("phi", [0.0, 0.6])
    def test_equal_to_reference_built_from_the_recursion(self, monkeypatch, phi):
        n, k, m, p = 5, 3, 2, 4
        # two individuals per chunk, so the last chunk holds one
        monkeypatch.setattr(dbicc.simulation, "_SERIES_CHUNK_BYTES", 2 * 8 * k * m * p)
        sigmas = gen_spd_population(n, p, np.random.default_rng(12))
        got = _sample_covs(sigmas, m, phi, k, 13)
        ref_rng = np.random.default_rng(13)
        ref = []
        for sigma in sigmas:
            innov = ref_rng.standard_normal((k, m, p)) @ np.linalg.cholesky(sigma).T
            ref.extend(_sample_cov(x) for x in _var1_reference(innov, phi))
        assert np.array_equal(got, np.array(ref))


class TestExperimentRunners:
    def test_the_default_grid_is_8_lengths_log_spaced_from_25_to_197(self):
        grid = np.unique(np.rint(np.geomspace(25, 197, 8)).astype(int))
        assert dbicc.simulation._M_GRID == tuple(grid.tolist())

    def test_point_experiment_fields_and_determinism(self):
        kwargs = dict(
            n_individuals=10, n_replicates=4, icc=0.5, n_runs=8, seed=99, dim=2
        )
        r1 = run_point_experiment(**kwargs, workers=1)
        r2 = run_point_experiment(**kwargs, workers=2)
        assert r1 == r2
        assert len(r1["estimates"]) == 8
        assert -1.0 < r1["mean"] <= 1.0
        assert r1["seed"] == 99

    def test_coverage_experiment_fields_and_determinism(self):
        kwargs = dict(
            n_individuals=10,
            n_replicates=4,
            icc=0.5,
            n_boot=150,
            n_runs=6,
            seed=17,
            dim=2,
        )
        r1 = run_coverage_experiment(**kwargs, workers=1)
        r2 = run_coverage_experiment(**kwargs, workers=2)
        assert r1 == r2
        assert 0.0 <= r1["coverage_naive"] <= 100.0
        assert 0.0 <= r1["coverage_corrected"] <= 100.0
        assert len(r1["runs"]) == 6
        for row in r1["runs"]:
            assert row["naive"][0] <= row["naive"][1]
            assert row["corrected"][0] <= row["corrected"][1]

    def test_coverage_runs_estimate_each_sample_once(self, monkeypatch):
        calls = []

        def counted(stats):
            calls.append(stats)
            return dbicc_point(stats)

        monkeypatch.setattr(dbicc.simulation, "dbicc_point", counted)
        monkeypatch.setattr(dbicc.bootstrap, "dbicc_point", counted)
        report = run_coverage_experiment(7, 3, n_boot=100, n_runs=4, seed=3, workers=1)
        assert len(calls) == 4  # the bootstrap's check, and nothing besides
        pop = dbicc.simulation._gaussian_population(7, 3, 0.5, 2)
        for run, row in enumerate(report["runs"]):
            sample = gen_gaussian_sample(pop, np.random.default_rng([3, run]))
            assert row["point"] == dbicc_point(block_stats(sample, Metric.L2_VEC)).rho_hat

    def test_coverage_runs_take_each_between_sum_once(self, monkeypatch):
        calls = []
        resampled_sums = dbicc.core._resampled_sums

        def counted(stats, n_rows=1):
            calls.append(stats.sizes)
            return resampled_sums(stats, n_rows)

        monkeypatch.setattr(dbicc.core, "_resampled_sums", counted)
        monkeypatch.setattr(dbicc.bootstrap, "_resampled_sums", counted)
        run_coverage_experiment(7, 3, n_boot=100, n_runs=4, seed=3, workers=1)
        # per run: block_stats' between sum, kept for the point estimate, and
        # the replicates' terms
        assert len(calls) == 2 * 4

    def test_sb_experiment_fields_and_determinism(self):
        kwargs = dict(
            n_individuals=8,
            n_replicates=2,
            dim=5,
            m_grid=[10, 20, 40],
            ar_coeff=0.0,
            n_runs=2,
            seed=7,
        )
        r1 = run_sb_experiment(**kwargs, workers=1)
        r2 = run_sb_experiment(**kwargs, workers=2)
        assert r1 == r2
        for kind in ("covariance", "correlation"):
            assert len(r1[kind]["slopes"]) == 2
            assert np.isfinite(r1[kind]["mean_slope"])
            assert len(r1[kind]["mean_log_snr"]) == 3

    def test_sb_experiment_needs_enough_lengths(self):
        with pytest.raises(ParameterError):
            run_sb_experiment(m_grid=[10, 20], n_runs=1, seed=0)

    @pytest.mark.parametrize(
        "m_grid, offset, match",
        [
            ([25, 25, 60, 197], 1, "repeats a length"),
            ([5, 5, 5], 1, "repeats a length"),
            ([1, 5, 9], 1, "exceed the offset 1"),
            ([0, 5, 9], 0, "exceed the offset 0"),
            ([5, 10, 20], 2, "offset must be 0 or 1"),
        ],
    )
    def test_sb_experiment_checks_grid_before_any_run(
        self, monkeypatch, m_grid, offset, match
    ):
        def no_runs(worker, tasks, workers):
            raise AssertionError("a Monte Carlo run started")

        monkeypatch.setattr(dbicc.simulation, "run_in_children", no_runs)
        with pytest.raises(ParameterError, match=match):
            run_sb_experiment(m_grid=m_grid, offset=offset, n_runs=20, seed=1)

    @pytest.mark.parametrize("dim", [1, 0])
    def test_sb_experiment_refuses_one_channel_before_any_run(self, monkeypatch, dim):
        # one channel's correlation matrices are all [[1]]: no run could succeed
        def no_runs(worker, tasks, workers):
            raise AssertionError("a Monte Carlo run started")

        monkeypatch.setattr(dbicc.simulation, "run_in_children", no_runs)
        with pytest.raises(ParameterError, match=rf"^dim must be at least 2, got {dim}$"):
            run_sb_experiment(dim=dim, n_runs=20, seed=1)

    @pytest.mark.parametrize("phi", [-0.1, 1.0, 2.0])
    def test_sb_experiment_ar_coeff_domain(self, phi):
        with pytest.raises(ParameterError, match=r"\[0, 1\)"):
            run_sb_experiment(
                n_individuals=4, dim=3, m_grid=[10, 20, 40], ar_coeff=phi,
                n_runs=1, seed=0,
            )

    @pytest.mark.parametrize(
        "runner", [run_point_experiment, run_coverage_experiment, run_sb_experiment]
    )
    def test_no_runs_are_refused_before_any_draw(self, monkeypatch, runner):
        def no_draws(*args):
            raise AssertionError("a seed or a run was drawn")

        monkeypatch.setattr(dbicc.simulation, "_resolve_seed", no_draws)
        monkeypatch.setattr(dbicc.simulation, "run_in_children", no_draws)
        with pytest.raises(ParameterError, match=r"^need at least 1 run, got 0$"):
            runner(n_runs=0)

    def test_coverage_experiment_checks_level_before_any_run(self, monkeypatch):
        def no_runs(worker, tasks, workers):
            raise AssertionError("a Monte Carlo run started")

        monkeypatch.setattr(dbicc.simulation, "run_in_children", no_runs)
        with pytest.raises(ParameterError, match=r"level must lie in \(0, 1\)"):
            run_coverage_experiment(4, 2, 0.5, n_boot=100, n_runs=2, level=1.5, seed=1)

    @pytest.mark.filterwarnings("error")  # no small-B warning before the error
    def test_coverage_experiment_refuses_one_replicate_before_any_run(self, monkeypatch):
        def no_runs(*args):
            raise AssertionError("a Monte Carlo run started")

        monkeypatch.setattr(dbicc.simulation, "run_in_children", no_runs)
        with pytest.raises(InsufficientDataError) as err:
            run_coverage_experiment(4, 2, 0.5, n_boot=1, n_runs=2, seed=1, workers=2)
        assert str(err.value) == "need at least 2 estimates for an interval, got 1"

    @pytest.mark.parametrize(
        "n_individuals, n_replicates, n_boot", [(10, 4, 300), (2, 2, 150)]
    )
    def test_coverage_rows_are_np_quantile_and_np_median(
        self, monkeypatch, n_individuals, n_replicates, n_boot
    ):
        calls = []

        def recorded(stats, *args, **kwargs):
            calls.append((stats, bootstrap_pair(stats, *args, **kwargs)))
            return calls[-1][1]

        bootstrap_pair = dbicc.simulation.bootstrap_dbicc_pair
        monkeypatch.setattr(dbicc.simulation, "bootstrap_dbicc_pair", recorded)
        level = 0.9
        report = run_coverage_experiment(
            n_individuals, n_replicates, 0.5, n_boot=n_boot, n_runs=6, level=level, seed=3
        )
        q = (1.0 - level) / 2.0
        for row, (stats, results) in zip(report["runs"], calls, strict=True):
            assert row["point"] == dbicc_point(stats).rho_hat
            for name, result in zip(("naive", "corrected"), results):
                assert result.rho_hat == row["point"]
                kept = result.replicate_estimates
                assert row[name] == np.quantile(kept, [q, 1.0 - q]).tolist()
                assert row[f"median_{name}"] == float(np.median(kept))
        if n_individuals == 2:  # half the replicates draw one individual twice over
            assert all(row["n_degenerate_corrected"] > 0 for row in report["runs"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_n_boot_warns_once(self, workers):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1  # the warning points here
            run_coverage_experiment(6, 2, n_boot=50, n_runs=3, seed=1, workers=workers)
        assert [(w.category, str(w.message), w.filename, w.lineno) for w in caught] == [
            (
                UserWarning,
                "n_boot=50 is small; percentile intervals are unstable below a few "
                "hundred replicates",
                __file__,
                line,
            )
        ]

    @pytest.mark.parametrize("n_boot, warned", [(99, 1), (100, 0)])
    def test_the_warning_starts_below_100_replicates(self, n_boot, warned):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_coverage_experiment(6, 2, n_boot=n_boot, n_runs=2, seed=1)
        assert [str(w.message) for w in caught] == [
            f"n_boot={n_boot} is small; percentile intervals are unstable below a few "
            "hundred replicates"
        ] * warned

    def test_point_experiment_icc_domain(self):
        with pytest.raises(ParameterError):
            run_point_experiment(10, 4, 1.5, 4, seed=0)
