"""End-to-end acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line (run with
``pytest -s`` to see them live).  All tolerances are fixed here and all
experiments are seeded, so the suite is deterministic.

Criterion 3 is implemented exactly as stated and is expected to FAIL:
the required per-run win rate of the corrected bootstrap median is
structurally unattainable (see notes in the companion test, which
verifies the real bias-reduction effect that motivates the criterion).
"""

import json

import numpy as np
import pytest

from dbicc import (
    DistanceMatrix,
    Metric,
    build_grouped_sample,
    classical_sb,
    compute_distance_matrix,
    cov_error_spread,
    dbicc_point,
    gen_mvn_timeseries,
    gen_spd_population,
    msd_between,
    msd_within,
    run_coverage_experiment,
    run_point_experiment,
    run_sb_experiment,
    snr,
    soft_threshold,
)
from dbicc.cli import main
from conftest import rand_corr, vector_sample

SEED = 20250810
WORKERS = 2


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def sb_reports():
    """SNR-curve experiments shared by criteria 4 and 5."""
    return {
        phi: run_sb_experiment(
            n_individuals=25,
            n_replicates=2,
            dim=40,
            ar_coeff=phi,
            n_runs=20,
            seed=SEED + int(10 * phi),
            workers=WORKERS,
        )
        for phi in (0.0, 0.6, 0.9)
    }


def test_c1_point_estimate_consistency():
    ok = True
    details = []
    for rho in (0.2, 0.5, 0.8):
        r = run_point_experiment(70, 4, rho, 500, seed=SEED + 1, workers=WORKERS)
        bias = r["mean"] - rho
        ok &= abs(bias) <= 0.02
        details.append(f"I=70 rho={rho}: mean {r['mean']:.4f}")
    for rho in (0.2, 0.5):
        r = run_point_experiment(10, 4, rho, 500, seed=SEED + 2, workers=WORKERS)
        ok &= r["mean"] < rho
        details.append(f"I=10 rho={rho}: mean {r['mean']:.4f} (< truth)")
    assert report("criterion 1 point-estimate consistency", ok, "; ".join(details))


def test_c2_table1_coverage_reproduction():
    targets = {0.2: (91.6, 93.2), 0.5: (91.4, 92.0), 0.8: (90.6, 92.6)}
    ok = True
    details = []
    for rho, (naive_target, corrected_target) in targets.items():
        rep = run_coverage_experiment(
            40, 4, rho, 1200, 500, seed=SEED + 20, workers=WORKERS
        )
        naive, corrected = rep["coverage_naive"], rep["coverage_corrected"]
        ok &= abs(naive - naive_target) <= 4.0
        ok &= abs(corrected - corrected_target) <= 4.0
        ok &= corrected >= naive
        details.append(f"rho={rho}: N {naive:.1f}/{naive_target} C {corrected:.1f}/{corrected_target}")
    assert report("criterion 2 Table-1 coverage", ok, "; ".join(details))


def _median_comparison(n_runs=100):
    rep = run_coverage_experiment(
        10, 4, 0.5, 1200, n_runs, seed=SEED + 30, workers=WORKERS
    )
    naive = np.array([r["median_naive"] for r in rep["runs"]])
    corrected = np.array([r["median_corrected"] for r in rep["runs"]])
    return naive, corrected


def test_c3_bias_correction_per_run_win_rate():
    # As stated: corrected bootstrap median strictly closer to 0.5 than the
    # naive median in >= 80% of 100 outer replicates.  The correction shifts
    # every run's median up by ~0.03 regardless of where it sits, so runs
    # whose estimate already exceeds the truth move away from it; the win
    # rate is structurally ~60%, and this test fails.  The companion test
    # below verifies the real effect.  Analysis: README.md, "Known red test".
    naive, corrected = _median_comparison()
    wins = int(np.sum(np.abs(corrected - 0.5) < np.abs(naive - 0.5)))
    ok = wins >= 80
    report(
        "criterion 3 per-run corrected-median win rate",
        ok,
        f"{wins}/100 runs (needs >= 80)",
    )
    assert ok


def test_c3_companion_aggregate_bias_reduction():
    # The reproducible content of the criterion: across outer replicates the
    # corrected bootstrap medians are markedly less biased than naive ones.
    naive, corrected = _median_comparison()
    gap_naive = abs(naive.mean() - 0.5)
    gap_corrected = abs(corrected.mean() - 0.5)
    ok = gap_corrected < gap_naive and corrected.mean() > naive.mean()
    assert report(
        "criterion 3 (companion) aggregate bias reduction",
        ok,
        f"mean naive median {naive.mean():.4f}, corrected {corrected.mean():.4f}",
    )


def test_c4_sb_slope_iid(sb_reports):
    rep = sb_reports[0.0]
    cov = rep["covariance"]["mean_slope"]
    corr = rep["correlation"]["mean_slope"]
    ok = abs(cov - 1.0) <= 0.05 and abs(corr - 1.0) <= 0.05
    assert report(
        "criterion 4 IID SNR slope",
        ok,
        f"covariance {cov:.4f}, correlation {corr:.4f} (need 1 +/- 0.05)",
    )


def test_c5_autocorrelation_attenuation(sb_reports):
    ok = True
    details = []
    for kind in ("covariance", "correlation"):
        mid = sb_reports[0.6][kind]["mean_slope"]
        high = sb_reports[0.9][kind]["mean_slope"]
        ok &= 0.85 < mid < 1.0
        ok &= high < 0.85
        details.append(f"{kind}: phi=0.6 {mid:.4f}, phi=0.9 {high:.4f}")
    # SNR strictly decreasing in autocorrelation at every series length
    for kind in ("covariance", "correlation"):
        for idx, m in enumerate(sb_reports[0.0]["m_grid"]):
            levels = [sb_reports[phi][kind]["mean_log_snr"][idx] for phi in (0.0, 0.6, 0.9)]
            ok &= levels[0] > levels[1] > levels[2]
    assert report("criterion 5 autocorrelation attenuation", ok, "; ".join(details))


def test_c6_cov_error_spread_identity():
    ok = True
    details = []
    rng = np.random.default_rng(SEED + 60)
    for dim, n_obs in ((2, 5), (5, 20), (10, 50)):
        sigma = gen_spd_population(1, dim, rng)[0]
        mc, analytic = cov_error_spread(sigma, n_obs, 10_000, rng)
        rel = abs(mc - analytic) / analytic
        ok &= rel < 0.05
        details.append(f"(p={dim}, m={n_obs}): rel err {rel:.3f}")
    assert report("criterion 6 covariance error-spread identity", ok, "; ".join(details))


def test_c7_property_suite():
    rng = np.random.default_rng(SEED + 70)
    ok = True

    # dbICC scale and permutation invariance
    dm = compute_distance_matrix(vector_sample(rng, [3, 2, 2], 4), Metric.L2_VEC)
    base = dbicc_point(dm).rho_hat
    scaled = DistanceMatrix(
        values=3.7 * dm.values,
        individual_index=dm.individual_index,
        replicate_index=dm.replicate_index,
    )
    ok &= abs(dbicc_point(scaled).rho_hat - base) < 1e-12
    payloads = {name: rng.standard_normal((2, 3)) for name in "ABC"}
    rows1 = [(n, j, payloads[n][j]) for n in "ABC" for j in range(2)]
    rows2 = [(n, j, payloads[n][j]) for n in "CBA" for j in (1, 0)]
    rho1 = dbicc_point(
        compute_distance_matrix(build_grouped_sample(rows1), Metric.L2_VEC)
    ).rho_hat
    rho2 = dbicc_point(
        compute_distance_matrix(build_grouped_sample(rows2), Metric.L2_VEC)
    ).rho_hat
    ok &= abs(rho1 - rho2) < 1e-12

    # SNR identity for interior estimates
    est = dbicc_point(dm)
    if 0.0 < est.rho_hat < 1.0:
        identity = (est.msd_between - est.msd_within) / est.msd_within
        ok &= abs(snr(est.rho_hat) - identity) <= 1e-10 * max(1.0, identity)

    # brute-force oracle equality of the MSD estimators, n <= 12
    for sizes in ([2, 3, 2], [4, 2, 1, 3], [2, 2, 2, 2, 2]):
        dm_small = compute_distance_matrix(vector_sample(rng, sizes, 3), Metric.L2_VEC)
        ind = dm_small.individual_index
        between, within = [], []
        for a in range(dm_small.n_total):
            for b in range(a + 1, dm_small.n_total):
                target = within if ind[a] == ind[b] else between
                target.append(dm_small.values[a, b] ** 2)
        ok &= msd_between(dm_small) == float(np.sum(np.array(between)) / len(between))
        ok &= msd_within(dm_small) == float(np.sum(np.array(within)) / len(within))

    # bootstrap determinism under varying worker counts
    kwargs = dict(
        n_individuals=10, n_replicates=4, icc=0.5, n_boot=200, n_runs=4, seed=SEED
    )
    ok &= run_coverage_experiment(**kwargs, workers=1) == run_coverage_experiment(
        **kwargs, workers=2
    )

    # soft-threshold semigroup
    r = rand_corr(rng, 5)
    once, _ = soft_threshold(r, 0.4)
    twice, _ = soft_threshold(soft_threshold(r, 0.15)[0], 0.25)
    ok &= bool(np.allclose(once, twice, atol=1e-12))

    # classical Spearman-Brown identity snr(rho_m) = m * snr(rho_1)
    for rho in (0.1, 0.5, 0.9):
        for m in (2, 7, 30):
            lhs = snr(classical_sb(rho, m))
            ok &= abs(lhs - m * snr(rho)) <= 1e-12 * max(1.0, lhs)

    assert report("criterion 7 property suite", ok)


def test_c8_full_pipeline_on_scan_shaped_input(tmp_path):
    # synthetic inputs with the 197x333 scan geometry, through the CLI
    rng = np.random.default_rng(SEED + 80)
    sigmas = gen_spd_population(25, 333, rng)
    lines = ["individual,replicate,path"]
    for i, sigma in enumerate(sigmas):
        for j in range(2):
            series = gen_mvn_timeseries(sigma, 197, 0.0, rng)
            rel = f"scan_{i:02d}_{j}.csv"
            np.savetxt(tmp_path / rel, series, delimiter=",", fmt="%.17g")
            lines.append(f"sub{i:02d},{j},{rel}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")

    boot_out = tmp_path / "boot.json"
    rc = main(
        [
            "bootstrap", str(manifest), "--distance", "corr", "--boot", "1200",
            "--seed", str(SEED), "--corrected", "--out", str(boot_out),
        ]
    )
    ok = rc == 0
    rho_corr = ci = None
    if ok:
        doc = json.loads(boot_out.read_text())
        rho_corr, ci = doc["rho_hat"], (doc["ci_low"], doc["ci_high"])
        ok &= np.isfinite(rho_corr) and rho_corr <= 1.0
        ok &= ci[0] <= ci[1]

    est_out = tmp_path / "est.json"
    rc2 = main(["estimate", str(manifest), "--distance", "l2", "--out", str(est_out)])
    ok &= rc2 == 0
    rho_l2 = None
    if rc2 == 0:
        rho_l2 = json.loads(est_out.read_text())["rho_hat"]
        ok &= np.isfinite(rho_l2) and rho_l2 <= 1.0

    assert report(
        "criterion 8 scan-shaped pipeline",
        ok,
        f"sqrt(1-r) rho {rho_corr}, CI {ci}; l2 rho {rho_l2}",
    )
