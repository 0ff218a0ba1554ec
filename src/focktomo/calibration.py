"""Vacuum calibration of the detector's affine response.

The vacuum block fixes the quadrature unit: raw values are modelled as
raw = scale * X + offset with X vacuum-distributed (sigma = 1/2), so

    offset_hat = sample mean,  scale_hat = sample standard deviation / 0.5.

These moment estimators are exact for a Gaussian.  The histogram stage, a
cross-check, not the default, fits m = pr_0(u) / s, u = (c - o) / s, to the
binned density by Gauss-Newton (dm/ds = m (4u^2 - 1) / s, dm/do = 4um / s)
from the moment solution until both steps are <= 1e-15 (s + |o|), so an
affine map of the raw values moves the fit exactly.  It raises NumericsError
if s leaves (0, inf) or after MAX_GAUSS_NEWTON_STEPS.  Both need numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError, check_positive, check_samples
from .reconstruction import _scott_density
from .states import VACUUM_STD, marginal_density

MIN_CALIBRATION_SAMPLES = 1000
MAX_GAUSS_NEWTON_STEPS = 50


@dataclass(frozen=True)
class CalibrationResult:
    scale_hat: float
    offset_hat: float
    n_used: int
    method: str = "moments"

    def __post_init__(self) -> None:
        check_positive("scale_hat", self.scale_hat)
        if not np.isfinite(self.offset_hat):
            raise ValidationError("offset_hat must be finite")


def _gauss_newton(centers, density, scale: float, offset: float) -> tuple[float, float]:
    for _ in range(MAX_GAUSS_NEWTON_STEPS):
        u = (centers - offset) / scale
        model = marginal_density(0.0, u) / scale
        jac = np.column_stack((model * (4.0 * u * u - 1.0), 4.0 * u * model)) / scale
        step = np.linalg.lstsq(jac, density - model)[0]
        scale, offset = scale + float(step[0]), offset + float(step[1])
        if not 0.0 < scale < np.inf:
            raise NumericsError(f"histogram calibration: scale left (0, inf) at {scale}")
        if np.all(np.abs(step) <= 1e-15 * (scale + abs(offset))):
            return scale, offset
    raise NumericsError(f"histogram calibration: no convergence in {MAX_GAUSS_NEWTON_STEPS} steps")


def fit_vacuum(values, method: str = "moments") -> CalibrationResult:
    """Estimate (scale, offset) from a vacuum block.

    `values` must be a 1-d array of at least MIN_CALIBRATION_SAMPLES finite
    raw values whose mean and spread are finite, and whose spread is non-zero,
    in float64 (else NumericsError).  "moments" takes the mean and sample
    standard deviation and bins nothing; "histogram" starts there and takes
    Gauss-Newton steps on the binned density until both are at most 1e-15
    (scale + |offset|), raising NumericsError if the scale leaves (0, inf) or
    after MAX_GAUSS_NEWTON_STEPS steps.
    """
    if method not in ("moments", "histogram"):
        raise ValidationError(f"unknown calibration method {method!r}")
    values = check_samples(values, "vacuum calibration", MIN_CALIBRATION_SAMPLES)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        offset_hat = float(np.mean(values))
        std = float(np.std(values, ddof=1))
    if not (np.isfinite(offset_hat) and np.isfinite(std)):
        raise NumericsError("vacuum block's mean or spread overflows float64; cannot calibrate")
    if std == 0.0:
        if values.min() < values.max():
            raise NumericsError("vacuum block's spread underflows float64: its values differ, "
                                "but their squared deviations round to 0; cannot calibrate")
        raise NumericsError("vacuum block has zero variance; cannot calibrate")
    scale_hat = std / VACUUM_STD
    if method == "histogram":
        scale_hat, offset_hat = _gauss_newton(*_scott_density(values, offset_hat, std),
                                              scale_hat, offset_hat)
    return CalibrationResult(scale_hat=scale_hat, offset_hat=offset_hat, method=method,
                             n_used=values.size)


def rescale(values, calibration: CalibrationResult) -> np.ndarray:
    """Map raw detector values to dimensionless quadratures."""
    values = np.asarray(values, dtype=float)
    return (values - calibration.offset_hat) / calibration.scale_hat
