"""Synthetic data generators and Monte Carlo experiment runners.

Generators cover the three data regimes used to study dbICC behavior:

* Gaussian score-plus-noise vectors (score and noise covariances given),
* sample covariance / correlation matrices built from IID multivariate
  normal draws around per-individual covariances,
* first-order vector-autoregressive series, initialized from their
  stationary law, whose lag-1 coefficient controls temporal
  autocorrelation.

Experiment runners reproduce the standard studies end to end: point
estimate consistency, bootstrap interval coverage (naive versus
duplicate-block corrected), and log-log SNR curves against measurement
intensity.  Every run draws from a generator seeded by (seed, run
index), so results are reproducible and independent of the worker
count used to fan the runs out: ``min(workers, n_runs)`` child
processes, forked on Linux while no other Python thread runs and
spawned otherwise (``dbicc._children``).  No run calls a scipy kernel
(their block sums are numpy's), so no child imports a scipy module.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._children import run_in_children
from .bootstrap import (
    _check_level,
    _check_n_boot,
    _median,
    _resolve_seed,
    bootstrap_dbicc_pair,
)
from .core import GroupedSample, PayloadKind, block_stats
from .core import _between_pair_count, _within_pair_count
from .distances import Metric, _chunk_rows, _chunks, _Workspace
from .errors import FactorizationError, ParameterError
from .estimator import dbicc_point
from .spearman_brown import _check_lengths, build_sb_curve, fit_loglog

__all__ = [
    "TrueScorePopulation",
    "gen_gaussian_sample",
    # no runner calls it: the one-series reference that the runners'
    # batched generator is tested against bit for bit
    "gen_mvn_timeseries",
    "gen_spd_population",
    # no runner calls it: README and acceptance criterion 6 use it
    "cov_error_spread",
    "run_point_experiment",
    "run_coverage_experiment",
    "run_sb_experiment",
]


def _factor(mats, what):
    """Lower Cholesky factor of an SPD matrix, or of each in a stack."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{what} is not symmetric positive definite") from exc


def _cholesky(mat, what):
    """Lower Cholesky factor of one square SPD matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise FactorizationError(f"{what} must be square, got shape {mat.shape}")
    return _factor(mat, what)


@dataclass(frozen=True)
class TrueScorePopulation:
    """Gaussian score-plus-noise population for vector observations.

    Observations are ``score_i + noise_ij`` with independent zero-mean
    Gaussian scores and noises.  Both covariances must be SPD; this is
    verified by factorization at construction (no jitter is applied).
    The samples' labels are formatted once, here.
    """

    score_cov: np.ndarray
    noise_cov: np.ndarray
    n_individuals: int
    n_replicates: int

    def __post_init__(self):
        score_chol = _cholesky(self.score_cov, "score covariance")
        noise_chol = _cholesky(self.noise_cov, "noise covariance")
        if score_chol.shape != noise_chol.shape:
            raise ParameterError("score and noise covariances must share one size")
        # the error every sample of the population would raise
        _between_pair_count([self.n_replicates] * self.n_individuals)
        if self.n_replicates < 1:
            raise ParameterError("need at least 1 replicate per individual")
        object.__setattr__(self, "score_cov", np.asarray(self.score_cov, dtype=float))
        object.__setattr__(self, "noise_cov", np.asarray(self.noise_cov, dtype=float))
        object.__setattr__(self, "_score_chol", score_chol)
        object.__setattr__(self, "_noise_chol", noise_chol)
        object.__setattr__(self, "_labels", _sim_labels(self.n_individuals))

    @property
    def dim(self) -> int:
        return self.score_cov.shape[0]


def _check_ar1(ar_coeff, n_timepoints):
    """Raise unless the AR(1) law is stationary and a series has 2+ time points."""
    if not (0.0 <= ar_coeff < 1.0):
        raise ParameterError(
            f"AR(1) coefficient must lie in [0, 1) for stationarity, got {ar_coeff}"
        )
    if n_timepoints < 2:
        raise ParameterError(f"need at least 2 time points, got {n_timepoints}")


def _sim_labels(n):
    return tuple(f"sim{i:04d}" for i in range(n))


def gen_gaussian_sample(pop: TrueScorePopulation, rng) -> GroupedSample:
    """Draw a grouped vector sample from a score-plus-noise population."""
    rng = np.random.default_rng(rng)
    n, k, p = pop.n_individuals, pop.n_replicates, pop.dim
    scores = rng.standard_normal((n, p)) @ pop._score_chol.T
    noise = rng.standard_normal((n, k, p)) @ pop._noise_chol.T
    obs = scores[:, None, :] + noise
    return GroupedSample(
        values=obs.reshape(n * k, p),
        group_sizes=np.full(n, k),
        labels=pop._labels,
        payload_kind=PayloadKind.VECTOR,
    )


# Bytes of series held at a time: by _sample_covs, whose chunk is at
# least one individual's series and gets one AR(1) recursion, and by
# cov_error_spread, whose chunk is at least one pair of draws.
_SERIES_CHUNK_BYTES = 1 << 19


def _ar1_in_place(series, ar_coeff):
    """Turn innovations into a stationary AR(1) series, in place.

    Time runs along axis 0 of an array of two or more axes; every index
    into the later axes is its own series.  Row 0 is scaled to the
    stationary law and each later row gets ``ar_coeff`` times its
    predecessor added.
    """
    if ar_coeff == 0.0:
        return
    series[0] /= np.sqrt(1.0 - ar_coeff * ar_coeff)
    tmp = np.empty_like(series[0])
    for prev, cur in zip(series, series[1:]):
        cur += np.multiply(prev, ar_coeff, out=tmp)


def gen_mvn_timeseries(sigma, n_timepoints: int, ar_coeff: float, rng) -> np.ndarray:
    """One stationary (multivariate) AR(1) series with Gaussian innovations.

    The first row is drawn from the stationary law
    ``N(0, sigma / (1 - ar_coeff^2))``; each later row is
    ``ar_coeff * previous + innovation`` with innovations
    ``N(0, sigma)``.  With ``ar_coeff=0`` the rows are IID
    ``N(0, sigma)``.
    """
    _check_ar1(ar_coeff, n_timepoints)
    chol = _cholesky(sigma, "innovation covariance")
    rng = np.random.default_rng(rng)
    series = rng.standard_normal((n_timepoints, chol.shape[0])) @ chol.T
    _ar1_in_place(series, ar_coeff)
    return series


def _sample_cov_batch(series, out=None):
    """Sample covariance of each ``(n, p)`` series in a stack; centres in place."""
    n = series.shape[1]
    series -= series.mean(axis=1, keepdims=True)
    out = np.matmul(series.transpose(0, 2, 1), series, out=out)
    out /= n - 1
    return out


def _corr_scale_batch(covs):
    d = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
    out = covs / (d[:, :, None] * d[:, None, :])
    out = np.clip(out, -1.0, 1.0)
    rows = np.arange(out.shape[1])
    out[:, rows, rows] = 1.0
    return out


def _wishart_df(dim, wishart_df):
    """Wishart degrees of freedom: ``2 * dim`` when None, else at least ``dim``."""
    df = 2 * dim if wishart_df is None else int(wishart_df)
    if df < dim:
        raise ParameterError(f"wishart_df must be >= dim ({dim}), got {df}")
    return df


def gen_spd_population(n: int, dim: int, rng, wishart_df=None) -> list:
    """Random unit-diagonal SPD matrices (correlation-scaled Wishart draws).

    ``wishart_df`` controls heterogeneity: fewer degrees of freedom give
    more variable matrices.  Defaults to ``2 * dim``; must be at least
    ``dim`` so draws are almost surely nonsingular.
    """
    if n < 1:
        raise ParameterError(f"need at least 1 matrix, got {n}")
    df = _wishart_df(dim, wishart_df)
    rng = np.random.default_rng(rng)
    roots = rng.standard_normal((n, dim, df))
    wisharts = np.einsum("nik,njk->nij", roots, roots)
    return list(_corr_scale_batch(wisharts))


def _sample_covs(chols, ar_coeff, n_timepoints, n_replicates, rng):
    """Sample covariances of ``n_replicates`` series per individual, stacked.

    Individual ``i``'s series are stationary AR(1) series of
    ``n_timepoints`` rows whose innovations have the covariance
    ``chols[i] @ chols[i].T``, so one factorization serves every length.
    """
    n, k, m, p = len(chols), n_replicates, n_timepoints, chols.shape[-1]
    step = _chunk_rows(8 * k * m * p, _SERIES_CHUNK_BYTES)
    # time-major, so each AR(1) step updates one contiguous row of the chunk
    series = np.empty((m, min(step, n) * k, p))
    draws = np.empty((k, m, p))
    mats = np.empty((n * k, p, p))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        chunk = series[:, : (i1 - i0) * k]
        # innovations in individual order, so the RNG stream never depends on step
        for c, chol in enumerate(chols[i0:i1]):
            out = chunk[:, c * k : (c + 1) * k].transpose(1, 0, 2)
            np.matmul(rng.standard_normal(out=draws), chol.T, out=out)
        _ar1_in_place(chunk, ar_coeff)
        _sample_cov_batch(chunk.transpose(1, 0, 2), out=mats[i0 * k : i1 * k])
    return mats


def cov_error_spread(sigma, n_obs: int, n_rep: int, rng):
    """Spread of sample-covariance error, simulated and in closed form.

    Estimates ``E || S1 - S2 ||_F^2`` over independent pairs of sample
    covariances of ``n_obs`` IID Gaussian draws with covariance
    ``sigma``, and returns it together with the closed-form value
    ``2 * ((tr sigma)^2 + tr(sigma^2)) / (n_obs - 1)``.

    Returns
    -------
    (monte_carlo, analytic) : tuple of float
    """
    sigma = np.asarray(sigma, dtype=float)
    chol = _cholesky(sigma, "covariance")
    p = sigma.shape[0]
    if n_obs < p + 2:
        raise ParameterError(
            f"need n_obs >= dim + 2 for well-conditioned sample covariances, "
            f"got n_obs={n_obs}, dim={p}"
        )
    if n_rep < 1000:
        raise ParameterError(f"need at least 1000 replications, got {n_rep}")
    rng = np.random.default_rng(rng)
    total = 0.0
    for c in _chunks(n_rep, 16 * n_obs * p, _SERIES_CHUNK_BYTES):  # pairs of draws
        draws = rng.standard_normal((2 * (c.stop - c.start), n_obs, p)) @ chol.T
        covs = _sample_cov_batch(draws)
        diff = covs[0::2] - covs[1::2]
        total += float(np.sum(diff * diff))
    trace = float(np.trace(sigma))
    trace_sq = float(np.trace(sigma @ sigma))
    analytic = 2.0 * (trace * trace + trace_sq) / (n_obs - 1)
    return total / n_rep, analytic


# run_sb_experiment's series lengths: 8 integers about equally spaced on
# the log scale from 25 to 197
_M_GRID = (25, 34, 45, 61, 81, 109, 147, 197)


def _check_n_runs(n_runs):
    if n_runs < 1:
        raise ParameterError(f"need at least 1 run, got {n_runs}")


def _gaussian_population(n_individuals, n_replicates, icc, dim):
    """The point and coverage experiments' population, checked for their runs.

    Its dbICC under Euclidean distance, ``tr(score cov) / (tr(score cov) +
    tr(noise cov))``, is ``icc``, the truth the runs estimate: the noise
    covariance is ``(1 - icc) / icc`` times the identity score covariance.

    Raises, before any run or worker pool starts, what every run would:
    besides the population's own checks, its samples need replicates.
    """
    if not (0.0 < icc < 1.0):
        raise ParameterError(f"population dbICC must lie in (0, 1), got {icc}")
    noise_scale = (1.0 - icc) / icc
    pop = TrueScorePopulation(
        score_cov=np.eye(dim),
        noise_cov=noise_scale * np.eye(dim),
        n_individuals=n_individuals,
        n_replicates=n_replicates,
    )
    _within_pair_count([n_replicates])
    return pop


def _point_worker(task):
    pop, seed, run = task
    rng = np.random.default_rng([seed, run])
    sample = gen_gaussian_sample(pop, rng)
    return dbicc_point(block_stats(sample, Metric.L2_VEC)).rho_hat


def run_point_experiment(
    n_individuals: int = 40,
    n_replicates: int = 4,
    icc: float = 0.5,
    n_runs: int = 500,
    seed=None,
    dim: int = 2,
    workers: int = 1,
) -> dict:
    """Distribution of dbICC point estimates under a Gaussian population.

    Draws ``n_runs`` independent grouped samples with population dbICC
    ``icc`` (identity score covariance, scaled-identity noise) and
    estimates each with Euclidean distance.
    """
    _check_n_runs(n_runs)
    pop = _gaussian_population(n_individuals, n_replicates, icc, dim)
    seed = _resolve_seed(seed)
    tasks = [(pop, seed, run) for run in range(n_runs)]
    estimates = list(run_in_children(_point_worker, tasks, workers))
    arr = np.asarray(estimates)
    return {
        "experiment": "point",
        "n_individuals": n_individuals,
        "n_replicates": n_replicates,
        "dim": dim,
        "icc_true": float(icc),
        "n_runs": n_runs,
        "seed": seed,
        "estimates": [float(v) for v in estimates],
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if n_runs > 1 else 0.0,
    }


def _coverage_worker(workspace, task):
    """One coverage run, its replicate blocks computed in ``workspace``."""
    pop, seed, run, n_boot, level = task
    rng = np.random.default_rng([seed, run])
    sample = gen_gaussian_sample(pop, rng)
    stats = block_stats(sample, Metric.L2_VEC)
    boot_seed = int(rng.integers(0, 2**62))
    with warnings.catch_warnings():
        # the runner warned once of a small n_boot, the bootstrap's one warning
        warnings.simplefilter("ignore", UserWarning)
        naive, corrected = bootstrap_dbicc_pair(
            stats, n_boot, level=level, seed=boot_seed, _workspace=workspace
        )
    return {
        "point": float(naive.rho_hat),  # the estimate the bootstrap checked
        "naive": [naive.ci_low, naive.ci_high],
        "corrected": [corrected.ci_low, corrected.ci_high],
        "median_naive": _median(naive.replicate_estimates),
        "median_corrected": _median(corrected.replicate_estimates),
        "n_degenerate_naive": naive.n_degenerate,
        "n_degenerate_corrected": corrected.n_degenerate,
    }


def run_coverage_experiment(
    n_individuals: int = 40,
    n_replicates: int = 4,
    icc: float = 0.5,
    n_boot: int = 1200,
    n_runs: int = 500,
    level: float = 0.95,
    seed=None,
    dim: int = 2,
    workers: int = 1,
) -> dict:
    """Coverage of naive and corrected bootstrap intervals, same resamples.

    Each run simulates a Gaussian grouped sample with population dbICC
    ``icc``, bootstraps the estimate ``n_boot`` times, and records both
    interval variants.  Coverage percentages count runs whose interval
    contains the true value.  Every argument is checked before any run
    starts; an ``n_boot`` below 100 then warns once, not once per run.
    """
    _check_n_runs(n_runs)
    pop = _gaussian_population(n_individuals, n_replicates, icc, dim)
    _check_level(level)
    _check_n_boot(n_boot, stacklevel=2)
    seed = _resolve_seed(seed)
    tasks = [(pop, seed, run, n_boot, level) for run in range(n_runs)]
    # one workspace for every run of a process; each child process gets its own copy
    worker = functools.partial(_coverage_worker, _Workspace())
    rows = list(run_in_children(worker, tasks, workers))
    covered_naive = sum(r["naive"][0] <= icc <= r["naive"][1] for r in rows)
    covered_corr = sum(r["corrected"][0] <= icc <= r["corrected"][1] for r in rows)
    return {
        "experiment": "coverage",
        "n_individuals": n_individuals,
        "n_replicates": n_replicates,
        "dim": dim,
        "icc_true": float(icc),
        "n_boot": n_boot,
        "level": level,
        "n_runs": n_runs,
        "seed": seed,
        "coverage_naive": 100.0 * covered_naive / n_runs,
        "coverage_corrected": 100.0 * covered_corr / n_runs,
        "mean_point": float(np.mean([r["point"] for r in rows])),
        "runs": rows,
    }


def _sb_worker(task):
    (seed, run, n_individuals, n_replicates, dim, m_grid, ar_coeff, df) = task
    rng = np.random.default_rng([seed, run])
    sigmas = gen_spd_population(n_individuals, dim, rng, wishart_df=df)
    # one factorization per run, for every length
    chols = _factor(np.stack(sigmas), "individual covariance")
    # one grouping for all the run's samples
    sizes, labels = np.full(n_individuals, n_replicates), _sim_labels(n_individuals)
    rows = []
    for m in m_grid:
        covs = _sample_covs(chols, ar_coeff, m, n_replicates, rng)
        row = {"m": int(m)}
        corrs = _corr_scale_batch(covs)
        for kind, mats in (("covariance", covs), ("correlation", corrs)):
            sample = GroupedSample(mats, sizes, labels, PayloadKind.MATRIX)
            row[kind] = dbicc_point(block_stats(sample, Metric.L2_VEC)).rho_hat
        rows.append(row)
    return rows


def run_sb_experiment(
    n_individuals: int = 25,
    n_replicates: int = 2,
    dim: int = 40,
    m_grid=None,
    ar_coeff: float = 0.0,
    n_runs: int = 20,
    seed=None,
    wishart_df=None,
    offset: int = 1,
    workers: int = 1,
) -> dict:
    """Log-log SNR curves for connectivity-matrix dbICC versus series length.

    For each run, draws a population of per-individual covariances,
    simulates ``n_replicates`` AR(1) series of every length in
    ``m_grid`` per individual, estimates the dbICC of the resulting
    sample covariance matrices and sample correlation matrices under
    Frobenius distance, and fits a line to
    ``[log(m - offset), log snr]``.  Reports per-run slopes plus the
    across-run mean curve, for both matrix kinds.  ``m_grid``, by default
    8 lengths from 25 to 197, needs 3 or more distinct lengths above
    ``offset``, which is 0 or 1, ``ar_coeff`` must lie in [0, 1), and
    ``dim`` must be at least 2.  These and the population's arguments are
    checked before any run, with the errors the runs would raise.
    """
    _check_n_runs(n_runs)
    m_grid = [int(m) for m in (_M_GRID if m_grid is None else m_grid)]
    if len(m_grid) < 3:
        raise ParameterError("m_grid needs at least 3 lengths to fit a curve")
    _check_lengths(m_grid, offset)
    if dim < 2:  # one channel's correlation matrices are all [[1]]
        raise ParameterError(f"dim must be at least 2, got {dim}")
    # what gen_spd_population, the series generator and each sample check
    _wishart_df(dim, wishart_df)
    _check_ar1(ar_coeff, min(m_grid))
    sizes = [n_replicates] * n_individuals
    _between_pair_count(sizes)
    _within_pair_count(sizes)
    seed = _resolve_seed(seed)
    tasks = [
        (seed, run, n_individuals, n_replicates, dim, tuple(m_grid), ar_coeff, wishart_df)
        for run in range(n_runs)
    ]
    per_run = list(run_in_children(_sb_worker, tasks, workers))

    report = {
        "experiment": "sb",
        "n_individuals": n_individuals,
        "n_replicates": n_replicates,
        "dim": dim,
        "m_grid": m_grid,
        "ar_coeff": float(ar_coeff),
        "wishart_df": wishart_df,
        "offset": offset,
        "n_runs": n_runs,
        "seed": seed,
    }
    for kind in ("covariance", "correlation"):
        slopes = []
        intercepts = []
        n_excluded = 0
        points = []
        log_snr_by_m = {m: [] for m in m_grid}
        for run, rows in enumerate(per_run):
            estimates = [(row["m"], row[kind]) for row in rows]
            curve = build_sb_curve(estimates, offset=offset)
            slopes.append(curve.fit.slope)
            intercepts.append(curve.fit.intercept)
            n_excluded += len(curve.excluded)
            for pt in curve.points:
                log_snr_by_m[pt.m].append(pt.y)
                points.append(
                    {"run": run, "m": pt.m, "rho_hat": pt.rho_hat, "x": pt.x, "y": pt.y}
                )
        slopes_arr = np.asarray(slopes)
        mean_log_snr = [
            float(np.mean(log_snr_by_m[m])) if log_snr_by_m[m] else None
            for m in m_grid
        ]
        # one line through the across-run mean curve, with its OLS errors;
        # each run has 3 or more usable points at distinct lengths, so
        # the mean curve has too
        mean_fit = fit_loglog([
            (float(np.log(m - offset)), y)
            for m, y in zip(m_grid, mean_log_snr)
            if y is not None
        ])
        report[kind] = {
            "slopes": [float(s) for s in slopes],
            "intercepts": [float(b) for b in intercepts],
            "mean_slope": float(slopes_arr.mean()),
            "sd_slope": float(slopes_arr.std(ddof=1)) if n_runs > 1 else 0.0,
            "mean_intercept": float(np.mean(intercepts)),
            "mean_log_snr": mean_log_snr,
            "mean_curve_fit": {
                "slope": mean_fit.slope,
                "intercept": mean_fit.intercept,
                "slope_se": mean_fit.slope_se,
                "intercept_se": mean_fit.intercept_se,
            },
            "n_excluded_points": n_excluded,
            "points": points,
        }
    return report
