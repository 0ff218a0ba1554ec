"""End-to-end reconstruction of one homodyne run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationResult, fit_vacuum, rescale
from .errors import ValidationError, check_positive
from .reconstruction import (
    DiagonalEstimate,
    EfficiencyFit,
    GridDensity,
    MarginalHistogram,
    RadialWignerProfile,
    _check_inversion_grid,
    abel_inverse,
    bin_samples,
    fit_efficiency,
    sample_diagonals,
    smooth_marginal,
)
from .simulator import HomodyneDataset


@dataclass(frozen=True)
class ReconstructionConfig:
    """Tunable knobs of the reconstruction chain, with working defaults.

    grid_max and bandwidth_scale must be positive and finite; the stages
    check the other fields when they run."""

    fit_method: str = "mle"
    bandwidth_scale: float = 1.0
    bandwidth: float | None = None
    grid_max: float = 6.0
    grid_points: int = 2401
    n_bins: int = 1200
    r_max: float = 4.0
    n_radii: int = 401
    n_max: int = 3
    calibration_method: str = "moments"

    def __post_init__(self) -> None:
        check_positive("grid_max", self.grid_max)
        check_positive("bandwidth_scale", self.bandwidth_scale)


@dataclass(frozen=True)
class ReconstructionSummary:
    """Everything the reconstruction pipeline produces for one run."""

    calibration: CalibrationResult
    efficiency: EfficiencyFit
    diagonals: list[DiagonalEstimate]
    histogram: MarginalHistogram
    density: GridDensity
    profile: RadialWignerProfile
    analysis_source: str
    n_signal: int
    config: ReconstructionConfig = field(repr=False)

    @property
    def wigner_origin_from_rho(self) -> float:
        """W(0) = (2/pi)(1 - 2 rho_11), using the sampled diagonal."""
        return (2.0 / np.pi) * (1.0 - 2.0 * self.diagonals[1].rho_nn)

    @property
    def wigner_origin_sigma(self) -> float:
        return (4.0 / np.pi) * self.diagonals[1].sigma_nn

    @property
    def wigner_origin_reconstructed(self) -> float:
        """W(0) read off the smoothed-and-inverted profile."""
        return self.profile.origin

    def origin_consistent_with_fit(self) -> bool:
        """Whether (2/pi)(1 - 2 rho_11) matches (2/pi)(1 - 2 eta_hat)
        within the rho_11 sampling error, i.e. |rho_11 - eta_hat| <=
        sigma_11 plus the fit's own error band."""
        tol = self.diagonals[1].sigma_nn + self.efficiency.eta_stderr
        return bool(abs(self.diagonals[1].rho_nn - self.efficiency.eta_hat) <= tol)


@dataclass(frozen=True)
class _Prefix:
    # The bandwidth-independent results of one call, with private copies of
    # the blocks and the settings they came from.
    vacuum: np.ndarray
    fock: np.ndarray
    settings: tuple
    calibration: CalibrationResult
    efficiency: EfficiencyFit
    diagonals: tuple[DiagonalEstimate, ...]


# The previous successful call's prefix (one entry), or None.  A call reads
# it once and never mutates it, so concurrent calls only replace each other's.
_last_prefix: _Prefix | None = None


def reconstruct_dataset(dataset: HomodyneDataset,
                        config: ReconstructionConfig | None = None) -> ReconstructionSummary:
    """Run calibration, efficiency fit, diagonal sampling, and Wigner
    reconstruction on one dataset.

    The vacuum block always drives the calibration.  The signal block is
    the analysis target; a vacuum-only dataset (n_fock = 0) re-analyzes the
    vacuum block itself as the signal, which is the standard consistency
    control (expected: eta_hat at the 0 boundary, rho_00 near 1).

    The calibration, efficiency fit and diagonals do not depend on the
    binning, smoothing or inversion settings, so a bandwidth sweep over one
    run computes them once: the previous successful call's results are
    reused when both blocks equal its private copies (np.array_equal on
    shape and values) and calibration_method, fit_method and n_max match
    (type and value).  The rescaling, histogram, smoothing and inversion
    always run.  The cost is one float64 copy of both blocks, 8 bytes per
    event (about 1.7 MB for 200k + 12k events), held until a call on other
    data or settings replaces it.
    """
    global _last_prefix
    if config is None:
        config = ReconstructionConfig()
    vacuum = dataset.vacuum_values
    if vacuum.size == 0:
        raise ValidationError("dataset has no vacuum block; cannot calibrate")
    fock = dataset.fock_values
    if fock.size > 0:
        signal = fock
        analysis_source = "fock_block"
    else:
        signal = vacuum
        analysis_source = "vacuum_control"
    settings = tuple((type(v), v) for v in
                     (config.calibration_method, config.fit_method, config.n_max))

    prefix = _last_prefix
    hit = (prefix is not None and prefix.settings == settings
           and np.array_equal(prefix.vacuum, vacuum) and np.array_equal(prefix.fock, fock))
    if hit:
        cal, eff, diags = prefix.calibration, prefix.efficiency, prefix.diagonals
        x = rescale(signal, cal)
    else:
        _last_prefix = prefix = None  # the old copies are freed before new ones are made
        cal = fit_vacuum(vacuum, method=config.calibration_method)
        x = rescale(signal, cal)
        eff = fit_efficiency(x, method=config.fit_method)
        diags = tuple(sample_diagonals(x, n_max=config.n_max))
    hist = bin_samples(x, n_bins=config.n_bins, lo=-config.grid_max, hi=config.grid_max)
    _check_inversion_grid(config.grid_max, config.grid_points)
    dens = smooth_marginal(hist, bandwidth=config.bandwidth,
                           bandwidth_scale=config.bandwidth_scale,
                           grid_max=config.grid_max, grid_points=config.grid_points)
    profile = abel_inverse(dens, r_max=config.r_max, n_radii=config.n_radii)
    if not hit:
        # Stored only now, so a failed call leaves nothing and the copies
        # do not add to the smoothing's and inversion's peak memory.
        _last_prefix = _Prefix(np.array(vacuum, dtype=np.float64),
                               np.array(fock, dtype=np.float64), settings, cal, eff, diags)
    return ReconstructionSummary(
        calibration=cal,
        efficiency=eff,
        diagonals=list(diags),
        histogram=hist,
        density=dens,
        profile=profile,
        analysis_source=analysis_source,
        n_signal=int(signal.size),
        config=config,
    )
