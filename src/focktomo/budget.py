"""Multiplicative efficiency budget.

The overall detection efficiency predicted from independent bench
characterizations is the product of loss factors.  A factor of kind
"visibility_squared" is quoted as the interference visibility v and enters
the product as v^2 (with uncertainty 2 v sigma_v to first order); a factor
of kind "direct" enters as-is.  Relative uncertainties combine in
quadrature, first order.

This module also owns the budget file: format_budget writes it and
parse_budget reads it, both under the one rule of a BudgetResult.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import DatasetFormatError, ValidationError
from .kvtext import content_lines, format_kv, parse_kv

KINDS = ("direct", "visibility_squared")

BUDGET_FORMAT_VERSION = 1

# Bench characterization of the reference experiment: mode-matching
# visibility (enters squared), spatial filter transmission, detector
# quantum efficiency, and the complement of the false-trigger rate.
DEFAULT_FACTORS_TEXT = """\
mode_match_visibility 0.83 0.01 visibility_squared
spatial_filter 0.95 0 direct
detector_quantum_efficiency 0.90 0 direct
trigger_purity 0.98 0 direct
"""


@dataclass(frozen=True)
class EfficiencyFactor:
    """One multiplicative contribution to the efficiency budget."""

    name: str
    value: float
    uncertainty: float = 0.0
    kind: str = "direct"

    def __post_init__(self) -> None:
        # the name is one field of a factor table row, as parse_factors reads it
        if self.name.split() != [self.name] or "#" in self.name:
            raise ValidationError(
                f"factor name must be non-empty, without whitespace or '#', got {self.name!r}"
            )
        if not (0.0 < self.value <= 1.0):
            raise ValidationError(
                f"factor {self.name!r}: value must lie in (0, 1], got {self.value}"
            )
        if not (math.isfinite(self.uncertainty) and self.uncertainty >= 0.0):
            raise ValidationError(
                f"factor {self.name!r}: uncertainty must be >= 0, got {self.uncertainty}"
            )
        if self.kind not in KINDS:
            raise ValidationError(
                f"factor {self.name!r}: kind must be one of {KINDS}, got {self.kind!r}"
            )

    @property
    def effective_value(self) -> float:
        if self.kind == "visibility_squared":
            return self.value ** 2
        return self.value


@dataclass(frozen=True)
class BudgetResult:
    """Predicted efficiency with first-order propagated uncertainty."""

    eta_predicted: float
    eta_uncertainty: float
    n_factors: int


def _check_result(result: BudgetResult, error) -> BudgetResult:
    # The rule shared by combine, format_budget and parse_budget, so that the
    # writer never leaves a file the reader rejects; raises `error`.
    eta, sigma, n_factors = result.eta_predicted, result.eta_uncertainty, result.n_factors
    if not (0.0 < eta <= 1.0 and 0.0 <= sigma < math.inf and n_factors >= 0):
        raise error("budget needs 0 < eta_predicted <= 1, a finite eta_uncertainty"
                    f" >= 0 and n_factors >= 0; got {eta}, {sigma}, {n_factors}")
    return result


@dataclass(frozen=True)
class AgreementCheck:
    """Comparison of the budget prediction against a fitted efficiency."""

    difference: float
    tolerance: float
    passed: bool


def combine(factors: Sequence[EfficiencyFactor]) -> BudgetResult:
    """Multiply the factors and propagate their uncertainties.

    eta = prod(effective values); relative uncertainties add in quadrature,
    so sigma_eta = eta * hypot(relative sigmas), where a factor's relative
    sigma is 2 sigma / v for a visibility and sigma / v for a direct one.  A
    product or sigma that float64 cannot hold raises ValidationError.
    """
    factors = list(factors)
    if not factors:
        raise ValidationError("budget needs at least one factor")
    eta = float(math.prod(f.effective_value for f in factors))
    rel = [(2.0 if f.kind == "visibility_squared" else 1.0) * f.uncertainty / f.value
           for f in factors]
    return _check_result(BudgetResult(eta_predicted=eta, eta_uncertainty=eta * math.hypot(*rel),
                                      n_factors=len(factors)), ValidationError)


def check_agreement(budget: BudgetResult, eta_fitted: float,
                    eta_fitted_stderr: float) -> AgreementCheck:
    """Two-combined-sigma consistency between prediction and fit."""
    if not 0.0 <= eta_fitted <= 1.0:  # also rejects NaN
        raise ValidationError(f"eta_fitted must lie in [0, 1], got {eta_fitted}")
    if not (0.0 <= eta_fitted_stderr < math.inf):
        raise ValidationError(
            f"eta_fitted_stderr must be finite and >= 0, got {eta_fitted_stderr}"
        )
    diff = abs(budget.eta_predicted - eta_fitted)
    tol = 2.0 * math.hypot(budget.eta_uncertainty, eta_fitted_stderr)
    if not math.isfinite(tol):
        raise ValidationError(f"agreement tolerance 2 * hypot({budget.eta_uncertainty!r}, "
                              f"{eta_fitted_stderr!r}) overflows float64")
    return AgreementCheck(difference=diff, tolerance=tol, passed=bool(diff <= tol))


def format_budget(result: BudgetResult, factors: Sequence[EfficiencyFactor]) -> str:
    """The budget file: the result as key=value text, then one
    factor_<i>=name value uncertainty kind line per factor."""
    fields = {"budget_format_version": BUDGET_FORMAT_VERSION,
              **asdict(_check_result(result, ValidationError))}
    for i, f in enumerate(factors):
        fields[f"factor_{i}"] = f"{f.name} {float(f.value)!r} {float(f.uncertainty)!r} {f.kind}"
    return "\n".join(format_kv(fields)) + "\n"


def parse_budget(text: str) -> BudgetResult:
    """Read a budget file, checking its version and the result's rule; other
    keys, such as the factor_<i> lines, are ignored."""
    data = parse_kv(content_lines(text), {"budget_format_version": int, "eta_predicted": float,
                                          "eta_uncertainty": float, "n_factors": int},
                    "budget", required=("budget_format_version", "eta_predicted",
                                        "eta_uncertainty"))
    version = data["budget_format_version"]
    if version != BUDGET_FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported budget_format_version {version}, expected {BUDGET_FORMAT_VERSION}"
        )
    return _check_result(BudgetResult(data["eta_predicted"], data["eta_uncertainty"],
                                      data.get("n_factors", 0)), DatasetFormatError)


def parse_factors(text: str) -> list[EfficiencyFactor]:
    """Parse a factor table: one factor per line, fields
    'name value uncertainty kind', '#' comments and blank lines ignored."""
    factors = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 4:
            raise ValidationError(
                f"factor line {lineno}: expected 'name value uncertainty kind', got {line!r}"
            )
        name, value_s, unc_s, kind = parts
        try:
            value = float(value_s)
            uncertainty = float(unc_s)
        except ValueError as exc:
            raise ValidationError(f"factor line {lineno}: {exc}") from exc
        factors.append(EfficiencyFactor(name=name, value=value,
                                        uncertainty=uncertainty, kind=kind))
    if not factors:
        raise ValidationError("factor table is empty")
    return factors


def default_factors() -> list[EfficiencyFactor]:
    return parse_factors(DEFAULT_FACTORS_TEXT)


def load_factors(path) -> list[EfficiencyFactor]:
    with open(path) as fh:
        return parse_factors(fh.read())
