"""Simulation and reconstruction toolkit for phase-randomized homodyne
tomography of a single-photon state.

``import focktomo`` loads no submodule. Each public name below is imported
from its defining submodule on first use (PEP 562) and then kept in the
package namespace, so ``focktomo simulate`` never loads the reconstruction
chain. A submodule named here, such as ``focktomo.reconstruction``, is also
imported on first access.
"""

import importlib

__version__ = "0.1.0"

# Each defining submodule and the public names it exports.
_EXPORTS = {
    "budget": ("AgreementCheck", "BudgetResult", "EfficiencyFactor", "check_agreement",
               "combine", "default_factors", "load_factors"),
    "calibration": ("CalibrationResult", "fit_vacuum", "rescale"),
    "errors": ("DatasetFormatError", "NumericsError", "ValidationError"),
    "pipeline": ("PreparedRun", "ReconstructionConfig", "ReconstructionSummary", "prepare_run",
                 "reconstruct_dataset"),
    "reconstruction": ("DiagonalEstimate", "EfficiencyFit", "GridDensity", "MarginalHistogram",
                       "RadialWignerProfile", "abel_inverse", "bin_samples", "fit_efficiency",
                       "sample_diagonals", "smooth_marginal"),
    "simulator": ("DetectorModel", "HomodyneDataset", "RunSpec", "generate_run", "read_dataset",
                  "sample_quadrature", "write_dataset"),
    "states": ("marginal_cdf", "marginal_density", "marginal_ppf", "wigner_radial"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
