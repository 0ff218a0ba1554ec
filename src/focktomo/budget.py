"""Multiplicative efficiency budget.

The overall detection efficiency predicted from independent bench
characterizations is the product of loss factors.  A factor of kind
"visibility_squared" is quoted as the interference visibility v and enters
the product as v^2 (with uncertainty 2 v sigma_v to first order); a factor
of kind "direct" enters as-is.  Relative uncertainties combine in
quadrature, first order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_unit_interval
from .kvtext import content_lines

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
        if not self.name:
            raise ValidationError("factor name must be non-empty")
        if not (0.0 < self.value <= 1.0):
            raise ValidationError(
                f"factor {self.name!r}: value must lie in (0, 1], got {self.value}"
            )
        if not (np.isfinite(self.uncertainty) and self.uncertainty >= 0.0):
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

    @property
    def effective_uncertainty(self) -> float:
        if self.kind == "visibility_squared":
            return 2.0 * self.value * self.uncertainty
        return self.uncertainty


@dataclass(frozen=True)
class BudgetResult:
    """Predicted efficiency with first-order propagated uncertainty."""

    eta_predicted: float
    eta_uncertainty: float
    n_factors: int


@dataclass(frozen=True)
class AgreementCheck:
    """Comparison of the budget prediction against a fitted efficiency."""

    difference: float
    tolerance: float
    passed: bool


def combine(factors: Sequence[EfficiencyFactor]) -> BudgetResult:
    """Multiply the factors and propagate their uncertainties.

    eta = prod(effective values); relative uncertainties add in quadrature,
    so sigma_eta = eta * sqrt(sum((sigma_i / value_i)^2)).
    """
    factors = list(factors)
    if not factors:
        raise ValidationError("budget needs at least one factor")
    eta = 1.0
    rel_sq = 0.0
    for f in factors:
        eta *= f.effective_value
        rel_sq += (f.effective_uncertainty / f.effective_value) ** 2
    return BudgetResult(
        eta_predicted=float(eta),
        eta_uncertainty=float(eta * np.sqrt(rel_sq)),
        n_factors=len(factors),
    )


def check_agreement(budget: BudgetResult, eta_fitted: float,
                    eta_fitted_stderr: float) -> AgreementCheck:
    """Two-combined-sigma consistency between prediction and fit."""
    check_unit_interval("eta_fitted", eta_fitted)
    if not (0.0 <= eta_fitted_stderr < np.inf):
        raise ValidationError(
            f"eta_fitted_stderr must be finite and >= 0, got {eta_fitted_stderr}"
        )
    diff = abs(budget.eta_predicted - eta_fitted)
    tol = 2.0 * float(np.hypot(budget.eta_uncertainty, eta_fitted_stderr))
    return AgreementCheck(difference=diff, tolerance=tol, passed=bool(diff <= tol))


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
