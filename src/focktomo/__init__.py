"""Simulation and reconstruction toolkit for phase-randomized homodyne
tomography of a single-photon state."""

__version__ = "0.1.0"

from .budget import (
    AgreementCheck,
    BudgetResult,
    EfficiencyFactor,
    check_agreement,
    combine,
    default_factors,
    load_factors,
)
from .calibration import CalibrationResult, fit_vacuum, rescale
from .errors import DatasetFormatError, NumericsError, ValidationError
from .pipeline import ReconstructionConfig, ReconstructionSummary, reconstruct_dataset
from .reconstruction import (
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
from .simulator import (
    DetectorModel,
    HomodyneDataset,
    RunSpec,
    generate_run,
    read_dataset,
    sample_quadrature,
    write_dataset,
)
from .states import marginal_cdf, marginal_density, marginal_ppf, wigner_radial

__all__ = [
    "AgreementCheck",
    "BudgetResult",
    "CalibrationResult",
    "DatasetFormatError",
    "DetectorModel",
    "DiagonalEstimate",
    "EfficiencyFactor",
    "EfficiencyFit",
    "GridDensity",
    "HomodyneDataset",
    "MarginalHistogram",
    "NumericsError",
    "RadialWignerProfile",
    "ReconstructionConfig",
    "ReconstructionSummary",
    "RunSpec",
    "ValidationError",
    "abel_inverse",
    "bin_samples",
    "check_agreement",
    "combine",
    "default_factors",
    "fit_efficiency",
    "fit_vacuum",
    "generate_run",
    "load_factors",
    "marginal_cdf",
    "marginal_density",
    "marginal_ppf",
    "read_dataset",
    "reconstruct_dataset",
    "rescale",
    "sample_diagonals",
    "sample_quadrature",
    "smooth_marginal",
    "wigner_radial",
    "write_dataset",
]
