"""Diagonal pattern functions for photon-number sampling.

The diagonal density-matrix element of a phase-randomized state is recovered
from its quadrature marginal as

    rho_nn = pi * integral pr(X) f_nn(X) dX,

where the sampling kernel f_nn is built from the product of the regular and
irregular solutions of the oscillator Schroedinger equation at energy n + 1/2
(f_nn = d/dX [psi_n phi_n]).  The kernels satisfy the orthonormality contract

    pi * integral pr_m(X) f_nn(X) dX = delta_mn

against every Fock-state marginal pr_m.  Closed forms below are expressed
with the Dawson function D(q) = exp(-q^2) integral_0^q exp(t^2) dt and the
scaled coordinate q = sqrt(2) X fixed by the convention var_vacuum(X) = 1/4.

D is evaluated with numpy alone: a Maclaurin series for |q| < 0.2, Rybicki's
exponential sum for larger |q| (Rybicki, Computers in Physics 3, 85 (1989);
Numerical Recipes, section 6.10) and 1/(2q) beyond 1e8, where the next term
of the asymptotic series is below half an ulp.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count

MAX_ORDER = 3

# Rybicki: D(q) = (1/sqrt(pi)) sum over odd n of exp(-(q - n h)^2) / n, to
# ~exp(-(pi / 2h)^2) for step h.  The sum is taken around the even n0 nearest
# q / h, 15 odd offsets each side, whose weights exp(-((2k - 1) h)^2) fall
# below 1e-16 of the result before the sum is cut.
_RYBICKI_STEP = 0.2
_RYBICKI_WEIGHTS = np.exp(-((2.0 * np.arange(1, 16) - 1.0) * _RYBICKI_STEP) ** 2).tolist()
# D(q) = sum_k (-2)^k q^(2k+1) / (2k+1)!!; ten terms reach 1e-16 for |q| < 0.2.
_SERIES_MAX = 0.2
_SERIES = np.cumprod([1.0] + [-2.0 / (2 * k + 1) for k in range(1, 10)]).tolist()
_ASYMPTOTIC_MIN = 1e8


def _dawson_series(a):
    a2 = a * a
    poly = _SERIES[-1]
    for coef in _SERIES[-2::-1]:
        poly = poly * a2 + coef
    return a * poly


def _dawson_rybicki(a):
    n0 = 2.0 * np.floor(0.5 * a / _RYBICKI_STEP + 0.5)
    xp = a - n0 * _RYBICKI_STEP
    # Term k pairs the offsets n0 +- (2k - 1); exp(2 (2k - 1) xp h) is built
    # by repeated multiplication with exp(4 xp h).
    e1 = np.exp(2.0 * _RYBICKI_STEP * xp)
    e2 = e1 * e1
    up, down = n0 + 1.0, n0 - 1.0
    total = 0.0
    for weight in _RYBICKI_WEIGHTS:
        total += weight * (e1 / up + 1.0 / (down * e1))
        up += 2.0
        down -= 2.0
        e1 *= e2
    return np.exp(-xp * xp) * total / np.sqrt(np.pi)


def _dawson(q: np.ndarray):
    """Dawson's integral D(q) elementwise, odd in q, to ~2e-15 relative.
    Beyond the series and the sum, D = 1/(2|q|) with the sign of q, which
    also keeps NaN.  Each branch sees its input clipped to its own range, so
    no branch overflows; a 0-d input stays on numpy scalars throughout, which
    keeps the one-point calls of integrate.quad cheap."""
    a = np.abs(q)
    series = _dawson_series(np.minimum(a, _SERIES_MAX))
    rybicki = _dawson_rybicki(np.minimum(a, _ASYMPTOTIC_MIN))
    asymptotic = 0.5 / np.maximum(a, _ASYMPTOTIC_MIN)
    d = np.where(a < _SERIES_MAX, series, np.where(a < _ASYMPTOTIC_MIN, rybicki, asymptotic))
    return np.copysign(d, q)


def _kernel_scaled(n: int, q: np.ndarray, d: np.ndarray) -> np.ndarray:
    # pi * f_nn(X) expressed in q = sqrt(2) X, given d = D(q).  Polynomial parts
    # grow like q^(2n) while the Dawson terms cancel the growth, so at large q
    # the result keeps only part of D's precision (see pattern_function).
    q2 = q * q
    if n == 0:
        return 2.0 * (1.0 - 2.0 * q * d)
    if n == 1:
        return 8.0 * q * (1.0 - q2) * d + 4.0 * q2 - 2.0
    if n == 2:
        return 2.0 * q * (2.0 * q2 - 1.0) * (5.0 - 2.0 * q2) * d + 4.0 * q2 * q2 - 10.0 * q2 + 2.0
    poly = 4.0 * q2 ** 3 - 22.0 * q2 * q2 + 24.0 * q2 - 3.0
    daws = 2.0 * q * (2.0 * q2 - 3.0) * (9.0 * q2 - 2.0 * q2 * q2 - 3.0) * d
    return (2.0 / 3.0) * (daws + poly)


def _scaled_kernels(x: np.ndarray, n_max: int) -> list[np.ndarray]:
    """pi * f_nn(x) for n = 0..n_max, sharing one Dawson evaluation."""
    q = np.sqrt(2.0) * x
    d = _dawson(q)
    return [_kernel_scaled(n, q, d) for n in range(n_max + 1)]


def pattern_function(n: int, x):
    """Sampling kernel f_nn(X) for the diagonal element rho_nn, n <= MAX_ORDER:
    within 1e-10 absolute for |X| <= 6.  Beyond, f_33's relative error grows
    (2e-7 at X = 8, 8e-4 at X = 20, 0.19 at X = 50)."""
    n = check_count("pattern order", n, 0, MAX_ORDER)
    x = np.asarray(x, dtype=float)
    q = np.sqrt(2.0) * x
    out = _kernel_scaled(n, q, _dawson(q)) / np.pi
    if out.ndim == 0:
        return float(out)
    return out


def fock_marginal(n: int, x):
    """Quadrature marginal of the Fock state |n>, n <= MAX_ORDER.

    pr_n(X) = sqrt(2/pi) exp(-2 X^2) H_n(q)^2 / (2^n n!) with q = sqrt(2) X,
    where H_0..H_3 = 1, 2q, 4q^2 - 2, 8q^3 - 12q.
    Used as the reference family for the orthonormality contract.
    """
    n = check_count("pattern order", n, 0, MAX_ORDER)
    x = np.asarray(x, dtype=float)
    q = np.sqrt(2.0) * x
    q2 = q * q
    # H_n(q)^2 / (2^n n!)
    if n == 0:
        hermite_sq = 1.0
    elif n == 1:
        hermite_sq = 2.0 * q2
    elif n == 2:
        hermite_sq = (2.0 * q2 - 1.0) ** 2 / 2.0
    else:
        hermite_sq = q2 * (2.0 * q2 - 3.0) ** 2 / 3.0
    out = np.sqrt(2.0 / np.pi) * np.exp(-2.0 * x * x) * hermite_sq
    if out.ndim == 0:
        return float(out)
    return out
