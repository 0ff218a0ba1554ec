"""End-to-end reconstruction of one homodyne run."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .calibration import CalibrationResult, fit_vacuum, rescale
from .errors import ValidationError, check_positive
from .patterns import MAX_ORDER
from .reconstruction import (
    GRID_MAX,
    GRID_POINTS,
    N_BINS,
    N_RADII,
    R_MAX,
    DiagonalEstimate,
    EfficiencyFit,
    GridDensity,
    MarginalHistogram,
    RadialWignerProfile,
    abel_inverse,
    bin_samples,
    fit_efficiency,
    sample_diagonals,
    smooth_marginal,
)
from .simulator import HomodyneDataset


@dataclass(frozen=True)
class ReconstructionConfig:
    """The settings a caller chooses, with working defaults, and the chain's
    constants: the Silverman bandwidth times bandwidth_scale (bandwidth =
    None), the grid of grid_points nodes on [-grid_max, grid_max] with its
    n_bins histogram bins, two grid steps each, n_radii radii on [0, r_max]
    and diagonals up to n_max.  For another grid, radii or order, call the
    stage functions directly.  bandwidth_scale must be positive and finite;
    the stages check the method names when they run."""

    fit_method: str = "mle"
    bandwidth_scale: float = 1.0
    calibration_method: str = "moments"

    bandwidth: ClassVar[None] = None
    grid_max: ClassVar[float] = GRID_MAX
    grid_points: ClassVar[int] = GRID_POINTS
    n_bins: ClassVar[int] = N_BINS
    r_max: ClassVar[float] = R_MAX
    n_radii: ClassVar[int] = N_RADII
    n_max: ClassVar[int] = MAX_ORDER

    def __post_init__(self) -> None:
        check_positive("bandwidth_scale", self.bandwidth_scale)


@dataclass(frozen=True)
class PreparedRun:
    """The bandwidth-independent half of one run's analysis: the vacuum
    calibration, the efficiency fit and the diagonals, with the calibrated
    signal x (read-only) they came from and the config that set them.

    reconstruct(bandwidth_scale) runs the other half, bin -> smooth -> invert,
    at any bandwidth scale, so a bandwidth sweep prepares the run once."""

    calibration: CalibrationResult
    efficiency: EfficiencyFit
    diagonals: tuple[DiagonalEstimate, ...]
    analysis_source: str
    n_signal: int
    x: np.ndarray = field(repr=False)
    config: ReconstructionConfig = field(repr=False)

    @property
    def wigner_origin_from_rho(self) -> float:
        """W(0) = (2/pi)(1 - 2 rho_11), using the sampled diagonal."""
        return (2.0 / np.pi) * (1.0 - 2.0 * self.diagonals[1].rho_nn)

    @property
    def wigner_origin_sigma(self) -> float:
        return (4.0 / np.pi) * self.diagonals[1].sigma_nn

    def origin_consistent_with_fit(self) -> bool:
        """Whether (2/pi)(1 - 2 rho_11) matches (2/pi)(1 - 2 eta_hat)
        within the rho_11 sampling error, i.e. |rho_11 - eta_hat| <=
        sigma_11 plus the fit's own error band."""
        tol = self.diagonals[1].sigma_nn + self.efficiency.eta_stderr
        return bool(abs(self.diagonals[1].rho_nn - self.efficiency.eta_hat) <= tol)

    def reconstruct(self, bandwidth_scale: float | None = None) -> ReconstructionSummary:
        """Bin, smooth and Abel-invert x at `bandwidth_scale` (by default the
        run's); the summary's config is the run's with that scale."""
        config = self.config
        if bandwidth_scale is not None:
            config = replace(config, bandwidth_scale=bandwidth_scale)
        # The stages' defaults are the config's constants.
        hist = bin_samples(self.x)
        dens = smooth_marginal(hist, bandwidth_scale=config.bandwidth_scale)
        return ReconstructionSummary(
            calibration=self.calibration, efficiency=self.efficiency,
            diagonals=self.diagonals, analysis_source=self.analysis_source,
            n_signal=self.n_signal, x=self.x, config=config, histogram=hist, density=dens,
            profile=abel_inverse(dens))


@dataclass(frozen=True)
class ReconstructionSummary(PreparedRun):
    """Everything the pipeline produces for one run: the prepared run's results
    with the histogram, smoothed density and inverted profile of `config`."""

    histogram: MarginalHistogram
    density: GridDensity
    profile: RadialWignerProfile

    @property
    def wigner_origin_reconstructed(self) -> float:
        """W(0) read off the smoothed-and-inverted profile."""
        return self.profile.origin


def prepare_run(dataset: HomodyneDataset,
                config: ReconstructionConfig | None = None) -> PreparedRun:
    """Calibrate on the vacuum block, then fit the efficiency and sample the
    diagonals of the calibrated signal: the fock block, or for a vacuum-only
    dataset (n_fock = 0) the vacuum block itself, the standard consistency
    control (expected: eta_hat at the 0 boundary, rho_00 near 1)."""
    if config is None:
        config = ReconstructionConfig()
    vacuum, fock = dataset.vacuum_values, dataset.fock_values
    if vacuum.size == 0:
        raise ValidationError("dataset has no vacuum block; cannot calibrate")
    cal = fit_vacuum(vacuum, method=config.calibration_method)
    x = rescale(fock if fock.size > 0 else vacuum, cal)
    x.flags.writeable = False
    return PreparedRun(calibration=cal, efficiency=fit_efficiency(x, method=config.fit_method),
                       diagonals=sample_diagonals(x, n_max=config.n_max),
                       analysis_source="fock_block" if fock.size > 0 else "vacuum_control",
                       n_signal=int(x.size), x=x, config=config)


# The previous successful reconstruct_dataset call's blocks, as private float64
# copies, and its run; or None.  Read once and never mutated by a call.
_last_run: tuple[np.ndarray, np.ndarray, PreparedRun] | None = None


def reconstruct_dataset(dataset: HomodyneDataset,
                        config: ReconstructionConfig | None = None) -> ReconstructionSummary:
    """prepare_run(dataset, config).reconstruct(), reusing the previous
    successful call's run while both blocks equal its private copies
    (np.array_equal on shape and values) and config differs from the run's
    in bandwidth_scale alone.  The copies cost 8 bytes per event, about
    1.7 MB for 200k + 12k events."""
    global _last_run
    if config is None:
        config = ReconstructionConfig()
    vacuum, fock = dataset.vacuum_values, dataset.fock_values
    last = _last_run
    if (last is not None
            and replace(config, bandwidth_scale=last[2].config.bandwidth_scale) == last[2].config
            and np.array_equal(last[0], vacuum) and np.array_equal(last[1], fock)):
        return last[2].reconstruct(config.bandwidth_scale)
    _last_run = last = None  # the old copies are freed before new ones are made
    run = prepare_run(dataset, config)
    summary = run.reconstruct()
    # Stored only now, so a failed call leaves nothing and the copies do not
    # add to the smoothing's and inversion's peak memory.
    _last_run = (np.array(vacuum, dtype=np.float64), np.array(fock, dtype=np.float64), run)
    return summary
