"""Analytic model of an efficiency-degraded single-photon state.

Quadrature convention: the vacuum Wigner function is
W0(X, P) = (2/pi) exp(-2 (X^2 + P^2)), so the vacuum quadrature marginal is
Gaussian with standard deviation 1/2 (variance 1/4).

A single-photon state detected with overall efficiency eta behaves as the
mixture eta |1><1| + (1 - eta) |0><0|.  Its rotationally symmetric Wigner
function and phase-independent quadrature marginal are

    W_eta(R)  = (2/pi) exp(-2 R^2) [eta (4 R^2 - 1) + (1 - eta)]
    pr_eta(X) = sqrt(2/pi) exp(-2 X^2) [1 - eta + 4 eta X^2]

with R^2 = X^2 + P^2.  W_eta(0) = (2/pi)(1 - 2 eta) is negative exactly when
eta > 1/2.

marginal_cdf and marginal_ppf import scipy.special when they are called, and
nothing that `focktomo simulate` or `focktomo reconstruct` runs calls them:
the simulator draws the mixture directly, so they serve as the closed-form
reference for tests and for inverse-CDF sampling.  Everything else here needs
numpy alone.  Every function raises ValidationError for an eta outside
[0, 1] or not finite.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, check_unit_interval

# Vacuum marginal standard deviation in this convention.
VACUUM_STD = 0.5

# All quadrature mass lies inside [-PPF_BRACKET, PPF_BRACKET] to < 1e-28.
PPF_BRACKET = 8.0

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# wigner_radial, marginal_density and marginal_cdf clip |X| and R to this:
# beyond |X| = 20 the densities are exactly 0 and the CDF exactly 0 or 1
# (exp(-2 X^2) underflows), and from 1.34e154 on X^2 overflows, where 0 * inf
# would give NaN.
_FAR = 1e150


def _maybe_scalar(arr: np.ndarray) -> float | np.ndarray:
    if arr.ndim == 0:
        return float(arr)
    return arr


def wigner_radial(eta, r):
    """Phase-averaged Wigner function W_eta at radius R = sqrt(X^2 + P^2).

    `r` must be non-negative; `eta` and `r` broadcast.
    """
    eta = check_unit_interval("eta", eta)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValidationError("radius must be non-negative")
    r = np.minimum(r, _FAR)
    r2 = r * r
    out = (2.0 / np.pi) * np.exp(-2.0 * r2) * (eta * (4.0 * r2 - 1.0) + (1.0 - eta))
    return _maybe_scalar(out)


def marginal_density(eta, x):
    """Quadrature marginal pr_eta(X); identical at every phase."""
    eta = check_unit_interval("eta", eta)
    x = np.minimum(np.abs(np.asarray(x, dtype=float)), _FAR)
    x2 = x * x
    out = _SQRT_2_OVER_PI * np.exp(-2.0 * x2) * (1.0 - eta + 4.0 * eta * x2)
    return _maybe_scalar(out)


def marginal_cdf(eta, x):
    """Cumulative distribution of pr_eta, in closed form.

    Integrating the Gaussian-times-quadratic density gives

        CDF_eta(X) = (1 + erf(sqrt(2) X)) / 2 - eta sqrt(2/pi) X exp(-2 X^2).

    The erf term is evaluated as erfc(-sqrt(2) X) / 2, which is the same
    number but keeps full relative precision deep in the left tail, where
    1 + erf would cancel catastrophically.  X is clipped to [-1e150, 1e150],
    where the CDF is already exactly 0 or 1, so that X^2 cannot overflow.
    """
    from scipy import special

    eta = check_unit_interval("eta", eta)
    x = np.clip(np.asarray(x, dtype=float), -_FAR, _FAR)
    out = 0.5 * special.erfc(-np.sqrt(2.0) * x) - eta * _SQRT_2_OVER_PI * x * np.exp(-2.0 * x * x)
    return _maybe_scalar(out)


def marginal_ppf(eta, u, tol: float = 1e-13, max_iter: int = 80):
    """Quantile function of pr_eta via safeguarded Newton iteration.

    Solves CDF_eta(x) = u on [-PPF_BRACKET, PPF_BRACKET] to within `tol` on x.
    `u` outside [0, 1] is rejected; values of u extremely close to 0 or 1 are
    clipped so the root stays inside the bracket (the neglected tail mass is
    below 1e-18).

    The density is even, so PPF(u) = -PPF(1 - u).  For u > 1/2 the mirrored
    problem is solved instead: there the target value 1 - u is exact (the
    subtraction is exact for u >= 1/2) and the left-tail CDF retains full
    relative precision, so quantiles deep in either tail are resolved to the
    iteration tolerance rather than to the ulp of a CDF value near 1.

    On the lower half the root lies in [-PPF_BRACKET, 0] because CDF(0) = 1/2.
    Newton starts from 0.5 * ndtri(u), the exact root for eta = 0, and steps
    with the closed-form density.  Every CDF evaluation narrows a bracket
    [lo, hi] around the root; an iterate that leaves it is replaced by the
    bracket midpoint (`rtsafe` in Press et al., Numerical Recipes), which
    keeps the eta = 1 marginal, whose density vanishes at X = 0, convergent.
    An element stops once its Newton step or its bracket is below `tol`;
    only the elements still moving are iterated.
    """
    from scipy import special

    eta = check_unit_interval("eta", eta)
    u = check_unit_interval("quantile argument", u)
    u_eff = np.clip(u, 1e-18, 1.0 - 2.0 ** -53)

    eta_b, u_b = np.broadcast_arrays(eta, u_eff)
    flip = u_b > 0.5
    u_low = np.where(flip, 1.0 - u_b, u_b).ravel()
    eta_low = eta_b.ravel()
    x = 0.5 * special.ndtri(u_low)
    lo = np.full(x.shape, -PPF_BRACKET)
    hi = np.zeros(x.shape)
    active = np.arange(x.size)
    for _ in range(max_iter):
        if active.size == 0:
            break
        xa, ea = x[active], eta_low[active]
        f = marginal_cdf(ea, xa) - u_low[active]
        below = f < 0.0
        lo_a = np.where(below, xa, lo[active])
        hi_a = np.where(below, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f == 0.0, 0.0, f / marginal_density(ea, xa))
        x_new = xa - step
        outside = ~((lo_a <= x_new) & (x_new <= hi_a))
        x_new[outside] = 0.5 * (lo_a[outside] + hi_a[outside])
        done = (np.abs(x_new - xa) <= tol) | (hi_a - lo_a <= tol)
        x[active], lo[active], hi[active] = x_new, lo_a, hi_a
        active = active[~done]
    out = np.asarray(np.where(flip, -x.reshape(u_b.shape), x.reshape(u_b.shape)))
    return _maybe_scalar(out)

