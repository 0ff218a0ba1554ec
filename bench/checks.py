"""Output checks for one benchmark operation.

Statistical checks use tolerances of at least five standard errors, so
correct code essentially never fails one; none of them relies on
bit-identical output, because a different random stream is a legitimate
change.  Each check returns a list of failure messages (empty when the
output is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from focktomo.states import VACUUM_STD

N_SIGMA = 5.0
# The histogram methods (least-squares calibration, binned efficiency fit)
# are less efficient than the moment and likelihood estimators whose
# standard errors are known in closed form; their tolerance doubles it.
HISTOGRAM_METHOD_INFLATION = 2.0
NORMALIZATION_TOL = 1e-2
FORWARD_TOL = 1e-3


@dataclass(frozen=True)
class Expected:
    """What the generated run should reproduce."""

    eta: float
    n_vacuum: int
    n_fock: int
    scale: float
    offset: float
    dark_fraction: float

    @property
    def eta_eff(self) -> float:
        return self.eta * (1.0 - self.dark_fraction)


@dataclass(frozen=True)
class Observed:
    """The reconstructed quantities the checks look at."""

    calibration_method: str
    fit_method: str
    scale_hat: float
    offset_hat: float
    eta_hat: float
    eta_stderr: float
    origin_from_rho11: float
    origin_sigma: float
    profile_normalization: float
    hist_in_range: int
    hist_underflow: int
    hist_overflow: int
    hist_n_total: int
    n_signal: int


def observed_from_summary(summary) -> Observed:
    """Read the checked quantities off a pipeline ReconstructionSummary."""
    hist = summary.histogram
    return Observed(
        calibration_method=summary.calibration.method,
        fit_method=summary.efficiency.method,
        scale_hat=summary.calibration.scale_hat,
        offset_hat=summary.calibration.offset_hat,
        eta_hat=summary.efficiency.eta_hat,
        eta_stderr=summary.efficiency.eta_stderr,
        origin_from_rho11=summary.wigner_origin_from_rho,
        origin_sigma=summary.wigner_origin_sigma,
        profile_normalization=summary.profile.normalization(),
        hist_in_range=int(hist.counts.sum()),
        hist_underflow=hist.underflow,
        hist_overflow=hist.overflow,
        hist_n_total=hist.n_total,
        n_signal=summary.n_signal,
    )


def observed_from_outputs(outdir: Path) -> Observed:
    """Read the checked quantities from a `reconstruct` output directory:
    report.json and marginal_histogram.txt.  Raises ValueError when either
    does not parse."""
    try:
        report = json.loads((outdir / "report.json").read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"report.json does not parse: {exc}") from exc
    header: dict[str, str] = {}
    in_range = 0
    for line in (outdir / "marginal_histogram.txt").read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        elif line.strip():
            in_range += int(line.split()[2])
    wig = report["wigner"]
    return Observed(
        calibration_method=report["calibration"]["method"],
        fit_method=report["efficiency"]["method"],
        scale_hat=report["calibration"]["scale_hat"],
        offset_hat=report["calibration"]["offset_hat"],
        eta_hat=report["efficiency"]["eta_hat"],
        eta_stderr=report["efficiency"]["eta_stderr"],
        origin_from_rho11=wig["origin_from_rho11"],
        origin_sigma=wig["origin_sigma"],
        profile_normalization=wig["profile_normalization"],
        hist_in_range=in_range,
        hist_underflow=int(header["underflow"]),
        hist_overflow=int(header["overflow"]),
        hist_n_total=int(header["n_total"]),
        n_signal=report["analysis"]["n_signal"],
    )


def check_reconstruction(obs: Observed, exp: Expected) -> list[str]:
    """Calibration, efficiency, W(0) and histogram checks on one run."""
    failures = []
    cal_k = N_SIGMA * (HISTOGRAM_METHOD_INFLATION if obs.calibration_method == "histogram" else 1.0)
    # Moment estimators on n vacuum draws of std scale/2:
    # se(offset) = scale * 0.5 / sqrt(n), se(scale) = scale / sqrt(2 n).
    se_offset = exp.scale * VACUUM_STD / math.sqrt(exp.n_vacuum)
    se_scale = exp.scale / math.sqrt(2.0 * exp.n_vacuum)
    if not abs(obs.offset_hat - exp.offset) <= cal_k * se_offset:
        failures.append(f"offset_hat {obs.offset_hat!r} not within {cal_k:g} se of {exp.offset}")
    if not abs(obs.scale_hat - exp.scale) <= cal_k * se_scale:
        failures.append(f"scale_hat {obs.scale_hat!r} not within {cal_k:g} se of {exp.scale}")

    eta_k = N_SIGMA * (HISTOGRAM_METHOD_INFLATION if obs.fit_method == "hist" else 1.0)
    if not (math.isfinite(obs.eta_stderr) and obs.eta_stderr > 0.0):
        failures.append(f"eta_stderr {obs.eta_stderr!r} is not finite and positive")
    elif not abs(obs.eta_hat - exp.eta_eff) <= eta_k * obs.eta_stderr:
        failures.append(f"eta_hat {obs.eta_hat!r} not within {eta_k:g} stderr of "
                        f"eta*(1-dark)={exp.eta_eff!r}")

    origin_true = (2.0 / math.pi) * (1.0 - 2.0 * exp.eta_eff)
    if not abs(obs.origin_from_rho11 - origin_true) <= N_SIGMA * obs.origin_sigma:
        failures.append(f"(2/pi)(1-2 rho_11)={obs.origin_from_rho11!r} not within "
                        f"{N_SIGMA:g} origin_sigma of {origin_true!r}")

    if obs.n_signal != exp.n_fock:
        failures.append(f"n_signal {obs.n_signal} != n_fock {exp.n_fock}")
    hist_sum = obs.hist_in_range + obs.hist_underflow + obs.hist_overflow
    if not hist_sum == obs.hist_n_total == exp.n_fock:
        failures.append(f"histogram counts+underflow+overflow={hist_sum}, n_total="
                        f"{obs.hist_n_total}, expected {exp.n_fock}")
    failures += check_normalization(obs.profile_normalization)
    return failures


def check_normalization(norm: float) -> list[str]:
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:
        return [f"profile normalization {norm!r} not within {NORMALIZATION_TOL} of 1"]
    return []


def check_bootstrap(stderr: np.ndarray) -> list[str]:
    """Bootstrap standard errors are finite, non-negative and positive at
    the origin, where the profile is far from zero."""
    if not (np.all(np.isfinite(stderr)) and np.all(stderr >= 0.0) and stderr[0] > 0.0):
        return ["bootstrap stderr is not finite and positive"]
    return []


def check_forward(projected: np.ndarray, density: np.ndarray) -> list[str]:
    """wigner_to_marginal of the profile reproduces the smoothed marginal."""
    gap = float(np.max(np.abs(projected - density)))
    if not gap <= FORWARD_TOL:
        return [f"forward projection differs from the smoothed marginal by {gap!r}"]
    return []
