import re

import numpy as np
import pytest

from dbicc import (
    DegenerateInputError,
    InsufficientDataError,
    Metric,
    ParameterError,
    build_grouped_sample,
    build_sb_curve,
    classical_sb,
    compute_distance_matrix,
    dbicc_point,
    fit_loglog,
    snr,
)


class TestSnr:
    def test_values(self):
        assert snr(0.0) == 0.0
        assert snr(0.5) == 1.0
        assert snr(0.8) == pytest.approx(4.0, rel=1e-12)

    def test_domain(self):
        for bad in (1.0, 1.5, -0.2):
            with pytest.raises(ParameterError):
                snr(bad)

    def test_round_trip(self, rng):
        for rho in rng.uniform(0.0, 0.999, size=50):
            value = snr(rho)
            assert value / (1.0 + value) == pytest.approx(rho, abs=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 0.99, 100)
        vals = [snr(r) for r in grid]
        assert np.all(np.diff(vals) > 0)

    def test_dbicc_snr_identity(self, rng):
        # snr(rho_hat) equals (msd_between - msd_within) / msd_within
        # whenever the estimate is interior
        for _ in range(10):
            base = rng.standard_normal((4, 1, 3))
            reps = base + 0.4 * rng.standard_normal((4, 2, 3))
            rows = [
                (str(i), j, reps[i, j]) for i in range(4) for j in range(2)
            ]
            est = dbicc_point(
                compute_distance_matrix(build_grouped_sample(rows), Metric.L2_VEC)
            )
            if 0.0 < est.rho_hat < 1.0:
                expected = (est.msd_between - est.msd_within) / est.msd_within
                assert snr(est.rho_hat) == pytest.approx(expected, rel=1e-10)


class TestClassicalSb:
    def test_identity_at_one(self):
        assert classical_sb(0.37, 1) == 0.37

    def test_hand_value(self):
        assert classical_sb(0.5, 3) == pytest.approx(0.75, rel=1e-14)

    def test_fixed_point_at_one(self):
        for m in (1, 2, 10, 100):
            assert classical_sb(1.0, m) == 1.0

    def test_snr_scaling_identity(self, rng):
        for rho in rng.uniform(0.05, 0.95, size=20):
            for m in (2, 5, 17):
                assert snr(classical_sb(rho, m)) == pytest.approx(
                    m * snr(rho), rel=1e-12
                )

    def test_increasing_in_m(self):
        vals = [classical_sb(0.3, m) for m in range(1, 20)]
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(ParameterError):
            classical_sb(1.2, 3)
        with pytest.raises(ParameterError):
            classical_sb(0.5, 0)


class TestFitLoglog:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_loglog(list(zip(x, 2.0 + 1.0 * x)))
        assert fit.slope == pytest.approx(1.0, abs=1e-14)
        assert fit.intercept == pytest.approx(2.0, abs=1e-14)
        assert fit.slope_se == pytest.approx(0.0, abs=1e-13)

    def test_matches_normal_equations_oracle(self, rng):
        x = rng.standard_normal(12)
        y = 0.7 * x - 1.3 + 0.3 * rng.standard_normal(12)
        fit = fit_loglog(list(zip(x, y)))
        n = len(x)
        sxx = np.sum((x - x.mean()) ** 2)
        slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
        intercept = y.mean() - slope * x.mean()
        resid = y - intercept - slope * x
        s2 = np.sum(resid**2) / (n - 2)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
        assert fit.slope_se == pytest.approx(np.sqrt(s2 / sxx), rel=1e-12)
        assert fit.intercept_se == pytest.approx(
            np.sqrt(s2 * (1 / n + x.mean() ** 2 / sxx)), rel=1e-12
        )

    def test_degenerate_x(self):
        with pytest.raises(DegenerateInputError):
            fit_loglog([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_points(self, n):
        # two points leave no residual degrees of freedom for the errors
        with pytest.raises(InsufficientDataError, match=f"^need at least 3 points .* got {n}$"):
            fit_loglog([(float(x), 2.0 * x) for x in range(n)])

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 2, 2)])
    def test_points_must_be_pairs(self, shape):
        with pytest.raises(ParameterError, match=re.escape(f"got array of shape {shape}")):
            fit_loglog(np.ones(shape))


class TestBuildSbCurve:
    def test_exact_inverse_m_minus_one_scaling(self):
        # rho_m = (m-1)/(m-1+k) makes snr exactly (m-1)/k: slope 1
        k = 7.0
        estimates = [(m, (m - 1) / (m - 1 + k)) for m in (5, 10, 20, 40, 80)]
        curve = build_sb_curve(estimates, offset=1)
        assert curve.fit.slope == pytest.approx(1.0, abs=1e-12)
        assert curve.fit.intercept == pytest.approx(-np.log(k), abs=1e-12)
        assert curve.fit.slope_se == pytest.approx(0.0, abs=1e-12)

    def test_exact_power_law_offset_zero(self):
        beta, k = 0.8, 3.0
        estimates = [(m, m**beta / (m**beta + k)) for m in (4, 8, 16, 32)]
        curve = build_sb_curve(estimates, offset=0)
        assert curve.fit.slope == pytest.approx(beta, abs=1e-12)

    def test_points_sorted_and_transformed(self):
        estimates = [(20, 0.5), (5, 0.2), (10, 0.4)]
        curve = build_sb_curve(estimates, offset=1)
        assert [p.m for p in curve.points] == [5, 10, 20]
        assert curve.points[0].x == pytest.approx(np.log(4.0))
        assert curve.points[0].y == pytest.approx(np.log(0.25))
        xs = [p.x for p in curve.points]
        assert np.all(np.diff(xs) > 0)

    def test_out_of_range_estimates_excluded(self):
        estimates = [(5, 0.3), (10, -0.1), (20, 0.5), (40, 1.0), (80, 0.7)]
        curve = build_sb_curve(estimates, offset=1)
        assert [p.m for p in curve.points] == [5, 20, 80]
        assert sorted(m for m, _ in curve.excluded) == [10, 40]

    def test_too_few_usable(self):
        with pytest.raises(InsufficientDataError):
            build_sb_curve([(5, 0.3), (10, -0.2), (20, 0.4)], offset=1)

    def test_duplicate_m_rejected(self):
        with pytest.raises(ParameterError):
            build_sb_curve([(5, 0.3), (5, 0.4), (10, 0.5), (20, 0.6)], offset=1)

    def test_m_not_above_offset_rejected(self):
        with pytest.raises(ParameterError):
            build_sb_curve([(1, 0.3), (5, 0.4), (10, 0.5)], offset=1)

    def test_bad_offset(self):
        with pytest.raises(ParameterError):
            build_sb_curve([(5, 0.3), (10, 0.4), (20, 0.5)], offset=2)
