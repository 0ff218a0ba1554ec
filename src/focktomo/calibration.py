"""Vacuum calibration of the detector's affine response.

The vacuum block fixes the quadrature unit: raw values are modelled as
raw = scale * X + offset with X vacuum-distributed (sigma = 1/2), so

    offset_hat = sample mean,  scale_hat = sample standard deviation / 0.5.

These moment estimators are exact for a Gaussian.  An optional histogram
stage refits (scale, offset) by least squares against the analytic vacuum
density; it is a cross-check, not the default.

The moment estimators need numpy alone.  The histogram fit imports
scipy.optimize (least_squares) when it runs; no command line path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError, check_positive, check_samples
from .reconstruction import _scott_density
from .states import VACUUM_STD, marginal_density

MIN_CALIBRATION_SAMPLES = 1000


@dataclass(frozen=True)
class CalibrationResult:
    scale_hat: float
    offset_hat: float
    fit_residual: float
    n_used: int
    method: str = "moments"

    def __post_init__(self) -> None:
        check_positive("scale_hat", self.scale_hat)
        if not np.isfinite(self.offset_hat):
            raise ValidationError("offset_hat must be finite")


def _vacuum_residuals(centers: np.ndarray, density: np.ndarray,
                      scale: float, offset: float) -> np.ndarray:
    # Binned empirical density minus the vacuum model mapped through the
    # affine detector response.
    return density - marginal_density(0.0, (centers - offset) / scale) / scale


def fit_vacuum(values, method: str = "moments") -> CalibrationResult:
    """Estimate (scale, offset) from a vacuum block.

    `values` must be a 1-d array of at least MIN_CALIBRATION_SAMPLES finite
    raw values.  method "moments" uses the mean and sample standard
    deviation; method "histogram" refines the moment solution by least
    squares against the analytic vacuum density.  fit_residual is the summed
    squared deviation of the binned empirical density from the model in
    both cases.
    """
    if method not in ("moments", "histogram"):
        raise ValidationError(f"unknown calibration method {method!r}")
    values = check_samples(values, "vacuum calibration", MIN_CALIBRATION_SAMPLES)

    offset_hat = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    if std == 0.0:
        raise NumericsError("vacuum block has zero variance; cannot calibrate")
    scale_hat = std / VACUUM_STD
    centers, density = _scott_density(values, offset_hat, std)

    if method == "moments":
        resid = _vacuum_residuals(centers, density, scale_hat, offset_hat)
        fit_residual = float(np.sum(resid ** 2))
    else:
        from scipy import optimize

        sol = optimize.least_squares(
            lambda p: _vacuum_residuals(centers, density, p[0], p[1]),
            x0=[scale_hat, offset_hat],
            bounds=([1e-6 * scale_hat, -np.inf], [1e6 * scale_hat, np.inf]),
        )
        if not sol.success or sol.x[0] <= 0.0:
            raise NumericsError(f"histogram calibration failed: {sol.message}")
        scale_hat, offset_hat = float(sol.x[0]), float(sol.x[1])
        fit_residual = float(2.0 * sol.cost)
    return CalibrationResult(scale_hat=scale_hat, offset_hat=offset_hat,
                             fit_residual=fit_residual, n_used=values.size, method=method)


def rescale(values, calibration: CalibrationResult) -> np.ndarray:
    """Map raw detector values to dimensionless quadratures."""
    values = np.asarray(values, dtype=float)
    return (values - calibration.offset_hat) / calibration.scale_hat
