"""Reliability-versus-measurement-intensity tools.

The signal-to-noise ratio of a reliability coefficient is
``snr(rho) = rho / (1 - rho)``.  Averaging over m replicates multiplies
the SNR of a classical ICC by m (the Spearman-Brown relation); for
estimated covariance matrices the factor is m - 1 instead.  Plotting
``log snr(rho_m)`` against ``log(m - offset)`` therefore yields a line
whose slope measures how fast added measurement intensity buys
reliability, and an ordinary least squares fit of that line estimates
the decay exponent of the within-individual spread.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InsufficientDataError, ParameterError

__all__ = [
    "LineFit",
    "SbPoint",
    "SbCurve",
    "snr",
    "snr_inverse",
    "classical_sb",
    "fit_loglog",
    "build_sb_curve",
]


@dataclass(frozen=True)
class LineFit:
    """OLS line fit with residual-based standard errors.

    ``degenerate`` marks a saturated two-point fit, where the residual
    degrees of freedom are zero and the standard errors are reported as
    0 by convention.
    """

    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    degenerate: bool = False


@dataclass(frozen=True)
class SbPoint:
    """One reliability estimate at measurement intensity m, log-transformed."""

    m: int
    rho_hat: float
    x: float
    y: float


@dataclass(frozen=True)
class SbCurve:
    """Log-log SNR curve over a grid of measurement intensities.

    ``points`` are the usable estimates in increasing m; estimates
    outside (0, 1), whose log-SNR is undefined, are listed in
    ``excluded``.  ``offset`` is 0 or 1 depending on whether the
    abscissa is log(m) or log(m - 1).
    """

    points: tuple
    offset: int
    fit: LineFit
    excluded: tuple = ()


def snr(rho: float) -> float:
    """Signal-to-noise ratio ``rho / (1 - rho)`` of a reliability value."""
    rho = float(rho)
    if not (0.0 <= rho < 1.0):
        raise ParameterError(f"snr requires rho in [0, 1), got {rho}")
    return rho / (1.0 - rho)


def snr_inverse(value: float) -> float:
    """Reliability having a given signal-to-noise ratio: ``s / (1 + s)``."""
    value = float(value)
    if value < 0.0:
        raise ParameterError(f"snr is nonnegative, got {value}")
    return value / (1.0 + value)


def classical_sb(rho1: float, m: int) -> float:
    """Reliability of an average of m replicates, from single-shot reliability.

    ``m * rho1 / (1 + (m - 1) * rho1)``; equivalently the SNR scales by m.
    """
    rho1 = float(rho1)
    if not (0.0 <= rho1 <= 1.0):
        raise ParameterError(f"rho1 must lie in [0, 1], got {rho1}")
    m = int(m)
    if m < 1:
        raise ParameterError(f"m must be a positive integer, got {m}")
    return m * rho1 / (1.0 + (m - 1) * rho1)


def fit_loglog(points) -> LineFit:
    """Ordinary least squares line through (x, y) points.

    Standard errors use the residual variance with n - 2 degrees of
    freedom.  Two points give an exact interpolation, reported with zero
    standard errors and ``degenerate=True``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError(f"expected (x, y) pairs, got array of shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 points to fit a line, got {n}")
    x, y = pts[:, 0], pts[:, 1]
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("all x values identical; slope undefined")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)
    if n == 2:
        return LineFit(slope, intercept, 0.0, 0.0, degenerate=True)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid * resid) / (n - 2))
    slope_se = float(np.sqrt(s2 / sxx))
    intercept_se = float(np.sqrt(s2 * (1.0 / n + x_mean * x_mean / sxx)))
    return LineFit(slope, intercept, slope_se, intercept_se)


def _check_lengths(m_grid, offset):
    """Raise unless ``m_grid`` holds distinct lengths above ``offset``, 0 or 1."""
    if len(set(m_grid)) != len(m_grid):
        raise ParameterError(f"m_grid repeats a length: {m_grid}")
    if offset not in (0, 1):
        raise ParameterError(f"offset must be 0 or 1, got {offset}")
    if any(m <= offset for m in m_grid):
        raise ParameterError(
            f"every length in m_grid must exceed the offset {offset}, got {min(m_grid)}"
        )


def build_sb_curve(estimates, offset: int = 1) -> SbCurve:
    """Transform (m, rho_hat) estimates into a fitted log-log SNR curve.

    Parameters
    ----------
    estimates : iterable of (m, rho_hat)
        Reliability estimates over a grid of measurement intensities.
    offset : {0, 1}
        Abscissa is log(m - offset).  Use 1 when the underlying spread
        scales like 1/(m-1) (estimated covariance matrices), 0 for a
        generic intensity exponent.

    Estimates with rho_hat outside (0, 1) have no log-SNR and are set
    aside in ``excluded``; at least 3 usable points are required.
    """
    offset = int(offset)
    estimates = [(int(m), float(rho)) for m, rho in estimates]
    _check_lengths([m for m, _ in estimates], offset)
    usable = [(m, rho) for m, rho in estimates if 0.0 < rho < 1.0]
    excluded = [(m, rho) for m, rho in estimates if not 0.0 < rho < 1.0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 estimates inside (0, 1) to fit a curve, "
            f"got {len(usable)} usable of {len(usable) + len(excluded)}"
        )
    usable.sort(key=lambda t: t[0])
    points = tuple(
        SbPoint(m=m, rho_hat=rho, x=float(np.log(m - offset)), y=float(np.log(snr(rho))))
        for m, rho in usable
    )
    fit = fit_loglog([(p.x, p.y) for p in points])
    return SbCurve(points=points, offset=offset, fit=fit, excluded=tuple(excluded))
