"""Run reports: deterministic key=value text plus a JSON twin.

Every value except the generation timestamp is a pure function of the
dataset and the reconstruction configuration, so regenerating a report from
the same inputs reproduces it byte-for-byte apart from the single
generated_at line.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from . import __version__
from .errors import DatasetFormatError, ValidationError
from .kvtext import format_kv, write_table

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
    # The chain's constants are hashed by name, so editing one changes the hash.
    import hashlib

    constants = {k: getattr(config, k) for k in ("bandwidth", "grid_max", "grid_points", "n_bins",
                                                 "r_max", "n_radii", "n_max")}
    payload = json.dumps({**asdict(config), **constants}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def dataset_section(dataset: HomodyneDataset, dataset_path: str | None = None) -> dict:
    """The report's [dataset] section: the run's header fields and the sha256
    of its raw values.  Only it reads the raw values, so a caller that builds
    it first may release them before reconstructing."""
    import hashlib

    import numpy as np

    spec = dataset.spec
    return {
        "path": dataset_path or "",
        "rng": dataset.rng_name,
        "seed": spec.seed,
        "eta_true": spec.eta_true,
        "n_vacuum": spec.n_vacuum,
        "n_fock": spec.n_fock,
        "scale": spec.detector.scale,
        "offset": spec.detector.offset,
        "dark_fraction": spec.detector.dark_fraction,
        # names the data where path cannot (a pipe reads as /dev/fd/63); for a
        # file read, the sha256 of its body
        "body_sha256": hashlib.sha256(np.ascontiguousarray(dataset.raw_value, "<f8")
                                      ).hexdigest(),
    }


def build_report(summary: ReconstructionSummary, dataset: HomodyneDataset | dict,
                 dataset_path: str | None = None,
                 timestamp: str | None = None) -> RunReport:
    """Assemble the report sections for one reconstructed run.  `dataset` is
    the run, or its section from dataset_section (then dataset_path is not
    read)."""
    from .states import wigner_radial  # loaded by the reconstruction already

    if not isinstance(dataset, dict):
        dataset = dataset_section(dataset, dataset_path)
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    diagonals: dict[str, object] = {}
    for d in summary.diagonals:
        diagonals[f"rho_{d.n}{d.n}"] = d.rho_nn
        diagonals[f"sigma_{d.n}{d.n}"] = d.sigma_nn
    diagonals["rho_sum"] = sum(d.rho_nn for d in summary.diagonals)

    sections = {
        "dataset": dataset,
        "calibration": {
            "method": summary.calibration.method,
            "scale_hat": summary.calibration.scale_hat,
            "offset_hat": summary.calibration.offset_hat,
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
# Merged reports


def merge_reports(recon: dict, budget: BudgetResult | None,
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
    if type(version) is not int or version != REPORT_VERSION:  # true and 1.0 equal 1
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
        from .budget import check_agreement

        efficiency = sections.get("efficiency", {})
        for key in ("eta_hat", "eta_stderr"):
            value = efficiency.get(key)
            # true is an int to Python and "0.01" a str, neither a JSON number;
            # an int past float64's range is no double
            if type(value) not in (int, float) or abs(value) > sys.float_info.max:
                raise DatasetFormatError(f"reconstruction report needs [efficiency] {key} "
                                         f"as a JSON number, got {value!r}")
        sections["budget"] = asdict(budget)
        sections["agreement"] = asdict(check_agreement(budget, efficiency["eta_hat"],
                                                       efficiency["eta_stderr"]))
    sections["provenance"] = {
        "package_version": __version__,
        "generated_at": timestamp,
    }
    return RunReport(sections=sections)
