"""Run reports: deterministic key=value text plus a JSON twin.

Every value except the generation timestamp is a pure function of the
dataset and the reconstruction configuration, so regenerating a report from
the same inputs reproduces it byte-for-byte apart from the single
generated_at line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import DatasetFormatError, ValidationError
from .kvtext import content_lines, format_kv, parse_kv, write_table

if TYPE_CHECKING:  # annotations only: each command loads just the modules it runs
    from .budget import BudgetResult
    from .pipeline import ReconstructionSummary
    from .reconstruction import MarginalHistogram, RadialWignerProfile
    from .simulator import HomodyneDataset

REPORT_VERSION = 1


@dataclass(frozen=True)
class RunReport:
    """Nested sections of scalars describing one reconstructed run."""

    sections: dict[str, dict[str, object]]

    def to_dict(self) -> dict:
        return {"report_version": REPORT_VERSION, **self.sections}

    def to_text(self) -> str:
        lines = format_kv({"report_version": REPORT_VERSION})
        for name, body in self.sections.items():
            lines += ["", f"[{name}]", *format_kv(body)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _config_hash(config) -> str:
    payload = json.dumps({**asdict(config), "n_bins": config.n_bins}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def build_report(summary: ReconstructionSummary, dataset: HomodyneDataset,
                 dataset_path: str | None = None,
                 timestamp: str | None = None) -> RunReport:
    """Assemble the report sections for one reconstructed run."""
    from .states import wigner_radial  # loaded by the reconstruction already

    spec = dataset.spec
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    diagonals: dict[str, object] = {}
    for d in summary.diagonals:
        diagonals[f"rho_{d.n}{d.n}"] = d.rho_nn
        diagonals[f"sigma_{d.n}{d.n}"] = d.sigma_nn
        diagonals[f"sigma_{d.n}{d.n}_uncentered"] = d.sigma_nn_uncentered
    diagonals["rho_sum"] = sum(d.rho_nn for d in summary.diagonals)

    sections = {
        "dataset": {
            "path": dataset_path or "",
            "rng": dataset.rng_name,
            "seed": spec.seed,
            "eta_true": spec.eta_true,
            "n_vacuum": spec.n_vacuum,
            "n_fock": spec.n_fock,
            "scale": spec.detector.scale,
            "offset": spec.detector.offset,
            "dark_fraction": spec.detector.dark_fraction,
        },
        "calibration": {
            "method": summary.calibration.method,
            "scale_hat": summary.calibration.scale_hat,
            "offset_hat": summary.calibration.offset_hat,
            "fit_residual": summary.calibration.fit_residual,
            "n_used": summary.calibration.n_used,
        },
        "efficiency": {
            "method": summary.efficiency.method,
            "eta_hat": summary.efficiency.eta_hat,
            "eta_stderr": summary.efficiency.eta_stderr,
            "objective": summary.efficiency.objective,
            "at_boundary": summary.efficiency.at_boundary,
            "n_used": summary.efficiency.n_used,
        },
        "diagonals": diagonals,
        "wigner": {
            "origin_from_rho11": summary.wigner_origin_from_rho,
            "origin_sigma": summary.wigner_origin_sigma,
            "origin_reconstructed": summary.wigner_origin_reconstructed,
            "profile_normalization": summary.profile.normalization(),
            "origin_consistent_with_fit": summary.origin_consistent_with_fit(),
            "origin_model": wigner_radial(summary.efficiency.eta_hat, 0.0),
        },
        "analysis": {
            "source": summary.analysis_source,
            "n_signal": summary.n_signal,
        },
        "config": {
            "fit_method": summary.config.fit_method,
            "bandwidth": summary.density.bandwidth,
            "bandwidth_scale": summary.config.bandwidth_scale,
            "grid_max": summary.config.grid_max,
            "grid_points": summary.config.grid_points,
            "n_bins": summary.config.n_bins,
            "r_max": summary.config.r_max,
            "n_radii": summary.config.n_radii,
            "calibration_method": summary.config.calibration_method,
            "config_hash": _config_hash(summary.config),
        },
        "provenance": {
            "package_version": __version__,
            "generated_at": timestamp,
        },
    }
    return RunReport(sections=sections)


def write_profile_table(profile: RadialWignerProfile, path, header: dict | None = None) -> None:
    """Two- or three-column text table of the radial Wigner profile."""
    columns, names = [profile.radii, profile.values], "radius wigner"
    if profile.stderr is not None:
        columns.append(profile.stderr)
        names += " stderr"
    write_table(path, {**(header or {}), "columns": names}, columns)


def write_histogram_table(hist: MarginalHistogram, path, header: dict | None = None) -> None:
    """Three-column text table: bin_left bin_right count."""
    write_table(path, {**(header or {}), "n_total": hist.n_total, "underflow": hist.underflow,
                       "overflow": hist.overflow, "columns": "bin_left bin_right count"},
                (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts))


# ---------------------------------------------------------------------------
# Budget output and merged reports


def budget_to_kv(result: BudgetResult, factors) -> str:
    """Budget result as parseable key=value text."""
    from .budget import BUDGET_FORMAT_VERSION

    fields = {"budget_format_version": BUDGET_FORMAT_VERSION,
              "eta_predicted": float(result.eta_predicted),
              "eta_uncertainty": float(result.eta_uncertainty), "n_factors": result.n_factors}
    for i, f in enumerate(factors):
        fields[f"factor_{i}"] = f"{f.name} {float(f.value)!r} {float(f.uncertainty)!r} {f.kind}"
    return "\n".join(format_kv(fields)) + "\n"


_BUDGET_TYPES = {"budget_format_version": int, "eta_predicted": float,
                 "eta_uncertainty": float, "n_factors": int}


def parse_budget_kv(text: str) -> dict:
    """Parse budget key=value text back into a dict, checking the version and
    the values; other keys, such as the factor_<i> lines, are ignored."""
    from .budget import BUDGET_FORMAT_VERSION

    parsed = parse_kv(content_lines(text), _BUDGET_TYPES, "budget",
                      required=("budget_format_version", "eta_predicted", "eta_uncertainty"))
    data = {key: parsed.get(key, 0) for key in _BUDGET_TYPES}
    version, eta, sigma, n_factors = data.values()
    if version != BUDGET_FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported budget_format_version {version}, expected {BUDGET_FORMAT_VERSION}"
        )
    if not (0.0 < eta <= 1.0 and 0.0 <= sigma < np.inf and n_factors >= 0):
        raise DatasetFormatError("budget needs 0 < eta_predicted <= 1, a finite eta_uncertainty"
                                 f" >= 0 and n_factors >= 0; got {eta}, {sigma}, {n_factors}")
    return data


def merge_reports(recon: dict, budget: dict | None,
                  timestamp: str | None = None) -> RunReport:
    """Consolidate a reconstruction report and an optional budget result.

    When both are present the budget prediction is compared with the fitted
    efficiency at two combined standard deviations.
    """
    if not isinstance(recon, dict):
        raise ValidationError(
            f"reconstruction report must be a JSON object, got {type(recon).__name__}"
        )
    version = recon.get("report_version")
    if version != REPORT_VERSION:
        raise DatasetFormatError(
            f"unsupported report_version {version!r}, expected {REPORT_VERSION}"
        )
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    sections: dict[str, dict[str, object]] = {}
    for name, body in recon.items():
        if name == "report_version":
            continue
        if name == "provenance":
            continue
        if not isinstance(body, dict):
            raise ValidationError(f"report section {name!r} must be a JSON object")
        sections[name] = dict(body)

    if budget is not None:
        from .budget import BudgetResult, check_agreement

        result = BudgetResult(
            eta_predicted=budget["eta_predicted"],
            eta_uncertainty=budget["eta_uncertainty"],
            n_factors=budget.get("n_factors", 0),
        )
        eff = recon.get("efficiency", {})
        try:
            eta_hat = float(eff["eta_hat"])
            eta_stderr = float(eff["eta_stderr"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"reconstruction report lacks an efficiency fit: {exc}") from exc
        agreement = check_agreement(result, eta_hat, eta_stderr)
        sections["budget"] = {
            "eta_predicted": result.eta_predicted,
            "eta_uncertainty": result.eta_uncertainty,
            "n_factors": result.n_factors,
        }
        sections["agreement"] = {
            "difference": agreement.difference,
            "tolerance": agreement.tolerance,
            "passed": agreement.passed,
        }
    sections["provenance"] = {
        "package_version": __version__,
        "generated_at": timestamp,
    }
    return RunReport(sections=sections)
