"""End-to-end reconstruction of one homodyne run."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationResult, fit_vacuum, rescale
from .errors import ValidationError, check_count, check_positive
from .patterns import MAX_ORDER
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
    check the other fields when they run.  The histogram's bins follow the
    smoothing grid: n_bins = (grid_points - 1) / 2 bins over [-grid_max,
    grid_max], two grid steps each."""

    fit_method: str = "mle"
    bandwidth_scale: float = 1.0
    bandwidth: float | None = None
    grid_max: float = 6.0
    grid_points: int = 2401
    r_max: float = 4.0
    n_radii: int = 401
    n_max: int = 3
    calibration_method: str = "moments"

    def __post_init__(self) -> None:
        check_positive("grid_max", self.grid_max)
        check_positive("bandwidth_scale", self.bandwidth_scale)

    @property
    def n_bins(self) -> int:
        """(grid_points - 1) // 2, once grid_points is an integer >= 101."""
        return (check_count("grid_points", self.grid_points, 101) - 1) // 2


def _prefix_settings(config: ReconstructionConfig) -> tuple:
    # The settings the bandwidth-independent half depends on, by type and value.
    return tuple((type(v), v) for v in (config.calibration_method, config.fit_method, config.n_max))


@dataclass(frozen=True)
class PreparedRun:
    """The bandwidth-independent half of one run's analysis: the vacuum
    calibration, the efficiency fit and the diagonals, with the calibrated
    signal x (read-only) they came from and the config that set them.

    reconstruct(config) runs the other half, bin -> smooth -> invert, for any
    config whose calibration_method, fit_method and n_max equal the run's in
    type and value, so a bandwidth sweep prepares the run once."""

    calibration: CalibrationResult
    efficiency: EfficiencyFit
    diagonals: Sequence[DiagonalEstimate]  # a tuple here, a fresh list in each summary
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

    def reconstruct(self, config: ReconstructionConfig | None = None) -> ReconstructionSummary:
        """Bin, smooth and Abel-invert x with `config`'s settings (by default the run's)."""
        if config is None:
            config = self.config
        want, got = _prefix_settings(self.config), _prefix_settings(config)
        if got != want:
            raise ValidationError("calibration_method, fit_method and n_max must equal the "
                                  f"prepared run's {tuple(v for _, v in want)} in type and "
                                  f"value, got {tuple(v for _, v in got)}")
        hist = bin_samples(self.x, n_bins=config.n_bins, lo=-config.grid_max, hi=config.grid_max)
        _check_inversion_grid(config.grid_max, config.grid_points)
        dens = smooth_marginal(hist, bandwidth=config.bandwidth,
                               bandwidth_scale=config.bandwidth_scale,
                               grid_max=config.grid_max, grid_points=config.grid_points)
        return ReconstructionSummary(
            calibration=self.calibration, efficiency=self.efficiency,
            diagonals=list(self.diagonals), analysis_source=self.analysis_source,
            n_signal=self.n_signal, x=self.x, config=config, histogram=hist, density=dens,
            profile=abel_inverse(dens, r_max=config.r_max, n_radii=config.n_radii))


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
    control (expected: eta_hat at the 0 boundary, rho_00 near 1).  n_max
    must lie in 1..MAX_ORDER, checked before calibrating: the run's W(0)
    reads rho_11."""
    if config is None:
        config = ReconstructionConfig()
    vacuum, fock = dataset.vacuum_values, dataset.fock_values
    if vacuum.size == 0:
        raise ValidationError("dataset has no vacuum block; cannot calibrate")
    check_count("n_max", config.n_max, 1, MAX_ORDER)
    cal = fit_vacuum(vacuum, method=config.calibration_method)
    x = rescale(fock if fock.size > 0 else vacuum, cal)
    x.flags.writeable = False
    return PreparedRun(calibration=cal, efficiency=fit_efficiency(x, method=config.fit_method),
                       diagonals=tuple(sample_diagonals(x, n_max=config.n_max)),
                       analysis_source="fock_block" if fock.size > 0 else "vacuum_control",
                       n_signal=int(x.size), x=x, config=config)


# The previous successful reconstruct_dataset call's blocks, as private float64
# copies, and its run; or None.  Read once and never mutated by a call.
_last_run: tuple[np.ndarray, np.ndarray, PreparedRun] | None = None


def reconstruct_dataset(dataset: HomodyneDataset,
                        config: ReconstructionConfig | None = None) -> ReconstructionSummary:
    """prepare_run(dataset, config).reconstruct(config), reusing the previous
    successful call's run while both blocks equal its private copies
    (np.array_equal on shape and values) and the prefix settings match.  The
    copies cost 8 bytes per event, about 1.7 MB for 200k + 12k events."""
    global _last_run
    if config is None:
        config = ReconstructionConfig()
    vacuum, fock = dataset.vacuum_values, dataset.fock_values
    last = _last_run
    if (last is not None and _prefix_settings(config) == _prefix_settings(last[2].config)
            and np.array_equal(last[0], vacuum) and np.array_equal(last[1], fock)):
        return last[2].reconstruct(config)
    _last_run = last = None  # the old copies are freed before new ones are made
    run = prepare_run(dataset, config)
    summary = run.reconstruct(config)
    # Stored only now, so a failed call leaves nothing and the copies do not
    # add to the smoothing's and inversion's peak memory.
    _last_run = (np.array(vacuum, dtype=np.float64), np.array(fock, dtype=np.float64), run)
    return summary
