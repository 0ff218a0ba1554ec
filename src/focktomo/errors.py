"""Exception types shared across the package, and the input checks that
raise them.  Each check names the argument it rejects.

numpy and hashlib are loaded only by the modules that compute with them, so
the command line shell, which imports this module for its exception types,
starts without either: the checks import numpy when they run, and each of
their callers is an array module that has loaded it already."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class DatasetFormatError(ValidationError):
    """Raised when a dataset file is malformed or has an unsupported version."""


class NumericsError(RuntimeError):
    """Raised when a numerical routine fails to converge or degenerates."""


def check_samples(values, what: str, min_size: int = 0) -> np.ndarray:
    """`values` as a 1-d float array of at least `min_size` finite entries;
    `what` names the step that needs them."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValidationError(f"{what} expects a 1-d array, got shape {values.shape}")
    if values.size < min_size:
        raise ValidationError(f"{what} needs at least {min_size} samples, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} input contains non-finite values")
    return values


def check_real(name: str, value) -> float:
    """`value` as a Python float: an int, a float or a numpy scalar of
    either, not a bool, a string, None or an array."""
    import numpy as np

    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past float64's range
        raise ValidationError(f"{name} must be a real number within float64, "
                              f"got {value!r}") from None


def check_unit_interval(name: str, value) -> np.ndarray:
    """`value` (a scalar or an array) as floats, each finite and in [0, 1]."""
    import numpy as np

    arr = np.asarray(value, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects NaN
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return arr


def check_count(name: str, value, least: int, most: int | None = None) -> int:
    """`value` as an int: an int or numpy integer, not a bool, in [least, most]."""
    import numpy as np

    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> None:
    """Reject a `value` that is not finite and > 0."""
    import numpy as np

    if not (np.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value}")
