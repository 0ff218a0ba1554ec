"""Reconstruction of the phase-averaged Wigner function and photon-number
diagonals from calibrated quadrature samples.

Pipeline pieces, each usable on its own:

  bin_samples      half-open uniform binning with explicit under/overflow
  smooth_marginal  binned Gaussian-kernel density estimate, symmetrized
  abel_inverse     radial Wigner profile from the even marginal
  fit_efficiency   one-parameter efficiency fit (maximum likelihood default)
  sample_diagonals density-matrix diagonals with statistical errors

The phase-averaged Wigner function obeys

    W(R) = -(1/pi) * integral_R^inf pr'(X) (X^2 - R^2)^(-1/2) dX.

The integrable endpoint singularity is removed by the substitution
u = sqrt(X^2 - R^2), after which

    W(R) = -(1/pi) * integral_0^U pr'(sqrt(R^2 + u^2)) / sqrt(R^2 + u^2) du

with U = sqrt(X_max^2 - R^2), and the integrand at R = 0, u = 0 tends to
pr''(0) because the density is even.  A composite Simpson rule on a fixed
node count then converges fast; the marginal beyond X_max is treated as
zero, which for X_max >= 4 contributes less than 1e-6 in absolute value.
One such rule per radius is evaluated for all radii at once, as a single
matrix-vector product on chord nodes that wigner_to_marginal shares: the
forward projection pr(X) = 2 * integral_0^V W(sqrt(X^2 + v^2)) dv is the same
integral over a chord of the disc of radius R_max.

scipy.optimize and scipy.interpolate are imported inside the functions that
use them, so importing the package (and running `focktomo simulate`) does
not pay for loading them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ValidationError
from .patterns import MAX_ORDER, pattern_function
from .states import marginal_density

# Abel inversion rejects marginals whose grid stops short of this radius or
# is sampled more coarsely than this spacing.
ABEL_MIN_RANGE = 4.0
ABEL_MAX_SPACING = 0.02

# Rule-based bandwidths and the efficiency fit need this many samples.
MIN_FIT_SAMPLES = 1000
MIN_SMOOTH_SAMPLES = 1000

_SIMPSON_NODES = 401
_SIMPSON_WEIGHTS = np.ones(_SIMPSON_NODES)
_SIMPSON_WEIGHTS[1:-1:2] = 4.0
_SIMPSON_WEIGHTS[2:-2:2] = 2.0


# ---------------------------------------------------------------------------
# Binning


@dataclass(frozen=True)
class MarginalHistogram:
    """Uniform histogram with half-open bins [e_i, e_{i+1}).

    A value equal to an interior edge lands in the right bin; a value equal
    to the last edge counts as overflow.  counts.sum() + underflow +
    overflow == n_total always holds.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_total: int
    underflow: int
    overflow: int

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def n_in_range(self) -> int:
        return int(self.counts.sum())

    def density(self) -> np.ndarray:
        """Empirical density normalized over the in-range samples."""
        n_in = self.n_in_range
        if n_in == 0:
            raise ValidationError("histogram holds no in-range samples")
        return self.counts / (n_in * self.bin_width)


def bin_samples(values, bin_edges=None, *, n_bins: int = 1200,
                lo: float = -6.0, hi: float = 6.0) -> MarginalHistogram:
    """Bin calibrated quadratures on a uniform grid.

    Pass explicit strictly increasing `bin_edges`, or let (`n_bins`, `lo`,
    `hi`) build them.  Out-of-range samples are tallied, never dropped
    silently.
    """
    return _tally(*_bin_positions(values, bin_edges, n_bins=n_bins, lo=lo, hi=hi))


def _bin_positions(values, bin_edges, *, n_bins, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    # Validated (searchsorted position of every value, bin edges).
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValidationError("expected a 1-d array of values")
    if not np.all(np.isfinite(values)):
        raise ValidationError("values contain non-finite entries")
    if bin_edges is None:
        if n_bins < 1 or not hi > lo:
            raise ValidationError("need n_bins >= 1 and hi > lo")
        bin_edges = np.linspace(lo, hi, n_bins + 1)
    else:
        bin_edges = np.asarray(bin_edges, dtype=float)
        if bin_edges.ndim != 1 or bin_edges.size < 2 or np.any(np.diff(bin_edges) <= 0):
            raise ValidationError("bin_edges must be strictly increasing with >= 2 entries")
        widths = np.diff(bin_edges)
        if not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
            raise ValidationError("bin_edges must be uniform")
    return np.searchsorted(bin_edges, values, side="right"), bin_edges


def _tally(pos: np.ndarray, bin_edges: np.ndarray) -> MarginalHistogram:
    # Position 0 is underflow, position k the bin k - 1, the last overflow.
    tally = np.bincount(pos, minlength=bin_edges.size + 1)
    return MarginalHistogram(bin_edges=bin_edges, counts=tally[1:-1], n_total=pos.size,
                             underflow=int(tally[0]), overflow=int(tally[-1]))


def _scott_density(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Empirical density on Scott's-rule bins over mean +- 5 std, wide enough
    # that essentially no Gaussian mass is clipped; at least 8 bins.  Returns
    # (bin centers, density).  Callers check the spread is non-zero.
    n = values.size
    std = float(np.std(values, ddof=1))
    width = 3.49 * std * n ** (-1.0 / 3.0)
    mean = float(np.mean(values))
    lo, hi = mean - 5.0 * std, mean + 5.0 * std
    n_bins = max(int(np.ceil((hi - lo) / width)), 8)
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts / (n * (edges[1] - edges[0]))


# ---------------------------------------------------------------------------
# Kernel density smoothing


@dataclass(frozen=True)
class GridDensity:
    """Smoothed marginal on a uniform symmetric grid."""

    x: np.ndarray
    density: np.ndarray
    bandwidth: float

    @property
    def spacing(self) -> float:
        return float(self.x[1] - self.x[0])


def silverman_bandwidth(hist: MarginalHistogram) -> float:
    """Silverman's rule 0.9 * min(std, IQR/1.34) * n^(-1/5) from binned data.

    Moments and quantiles are computed from the histogram itself (bin-center
    weighting for the spread, linear interpolation of the cumulative counts
    for the quartiles), so the rule needs no access to the raw samples.
    """
    n_in = hist.n_in_range
    if n_in < 2:
        raise NumericsError("too few in-range samples for a rule-based bandwidth")
    w = hist.counts / n_in
    mean = float(np.sum(w * hist.centers))
    var = float(np.sum(w * (hist.centers - mean) ** 2))
    std = np.sqrt(var)
    cum = np.cumsum(hist.counts) / n_in
    q25, q75 = np.interp([0.25, 0.75], cum, hist.bin_edges[1:])
    iqr = q75 - q25
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread <= 0.0:
        raise NumericsError("sample spread is zero; pass an explicit bandwidth")
    return 0.9 * spread * n_in ** (-0.2)


def smooth_marginal(hist: MarginalHistogram, *, bandwidth: float | None = None,
                    bandwidth_scale: float = 1.0, grid_max: float = 6.0,
                    grid_points: int = 2401) -> GridDensity:
    """Gaussian-kernel estimate of the even quadrature marginal.

    Kernels are centred on the histogram bins (weights = counts), evaluated
    on a symmetric uniform grid, symmetrized exactly via
    (f(x) + f(-x)) / 2, and renormalized to unit integral on the grid.
    The kernel sum is one convolution when the edges lie on a lattice of a
    whole number of grid spacings spanning fewer nodes than the grid (the
    default 1200 bins on 2401 points), else a dense grid x bins product.

    With bandwidth=None the Silverman rule scaled by `bandwidth_scale` is
    used and at least MIN_SMOOTH_SAMPLES in-range samples are required; an
    explicit `bandwidth` lifts that floor.
    """
    if grid_points < 101 or grid_points % 2 == 0:
        raise ValidationError("grid_points must be odd and >= 101 so 0 is a grid node")
    if not grid_max > 0.0:
        raise ValidationError("grid_max must be positive")
    n_in = hist.n_in_range
    if n_in == 0:
        raise ValidationError("histogram holds no in-range samples")
    if bandwidth is None:
        if n_in < MIN_SMOOTH_SAMPLES:
            raise ValidationError(
                f"rule-based bandwidth needs >= {MIN_SMOOTH_SAMPLES} samples, got {n_in}; "
                "pass an explicit bandwidth"
            )
        if not bandwidth_scale > 0.0:
            raise ValidationError("bandwidth_scale must be positive")
        bandwidth = bandwidth_scale * silverman_bandwidth(hist)
    if not (np.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")

    grid = np.linspace(-grid_max, grid_max, grid_points)
    f = _kernel_sum(hist, grid, bandwidth) / (n_in * bandwidth * np.sqrt(2.0 * np.pi))
    f = 0.5 * (f + f[::-1])
    norm = np.trapezoid(f, grid)
    if norm <= 0.0:
        raise NumericsError("smoothed density integrates to zero")
    return GridDensity(x=grid, density=f / norm, bandwidth=float(bandwidth))


def _kernel_sum(hist: MarginalHistogram, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    # sum_j counts_j exp(-((grid_i - c_j) / bandwidth)^2 / 2).  On a lattice of m
    # grid steps (to linspace rounding) grid_i - c_j depends only on i - m*j: the
    # m-upsampled counts convolved with the kernel at fewer than 2 * grid.size lags.
    counts, edges = hist.counts, hist.bin_edges
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    m = round(hist.bin_width / step)
    span = m * (counts.size - 1)
    lattice = edges[0] + m * step * np.arange(edges.size)
    atol = 8.0 * np.finfo(float).eps * np.abs(edges).max()
    if m >= 1 and span < grid.size and np.allclose(edges, lattice, rtol=0.0, atol=atol):
        z = ((grid[0] - hist.centers[0]) + step * np.arange(-span, grid.size)) / bandwidth
        upsampled = np.zeros(span + 1)
        upsampled[::m] = counts
        return np.convolve(upsampled, np.exp(-0.5 * z * z), mode="valid")
    mask = counts > 0
    z = (grid[:, None] - hist.centers[mask][None, :]) / bandwidth
    return np.exp(-0.5 * z * z) @ counts[mask]


# ---------------------------------------------------------------------------
# Abel inversion


@dataclass(frozen=True)
class RadialWignerProfile:
    """Phase-averaged Wigner function W(R) on radii >= 0."""

    radii: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    @property
    def origin(self) -> float:
        return float(self.values[0])

    def normalization(self) -> float:
        """2 pi * integral W(R) R dR over the profile's range; 1 for a
        normalized state whose mass lies inside max(radii)."""
        return float(2.0 * np.pi * np.trapezoid(self.values * self.radii, self.radii))


def _fold_even(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Accepts either a one-sided grid starting at 0 or a symmetric grid
    # centred on 0; returns the non-negative half with the two sides averaged.
    if x[0] >= 0.0:
        if x[0] != 0.0:
            raise ValidationError("one-sided marginal grid must start at X = 0")
        return x, f
    if x.size % 2 == 0 or not np.isclose(x[0], -x[-1], rtol=0, atol=1e-12 * abs(x[-1])):
        raise ValidationError("two-sided marginal grid must be symmetric about 0")
    k = (x.size - 1) // 2
    if abs(x[k]) > 1e-12:
        raise ValidationError("two-sided marginal grid must contain X = 0")
    return x[k:].copy(), 0.5 * (f[k:] + f[k::-1])


def _chord_nodes(points: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Simpson nodes of integral_0^sqrt(length^2 - p^2) g(sqrt(p^2 + v^2)) dv:
    # the mask of points p with |p| < length, their node spacings h and the
    # radii sqrt(p^2 + v^2), v as np.linspace(0, span, n) builds them.
    span_sq = length * length - points * points
    inside = span_sq > 0.0
    span = np.sqrt(span_sq[inside])
    h = span / (_SIMPSON_NODES - 1)
    v = np.arange(_SIMPSON_NODES) * h[:, None]
    v[:, -1] = span
    p = points[inside, None]
    return inside, h, np.sqrt(p * p + v * v)


def _chord_sum(inside: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = np.zeros(inside.shape)
    out[inside] = (h / 3.0) * (g @ _SIMPSON_WEIGHTS)
    return out


def _abel_nodes(xs: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, ...]:
    # The inversion's chord nodes plus each node's spline interval and offset
    # in it, as PPoly finds them; shared by every marginal on the grid xs.
    inside, h, nodes = _chord_nodes(radii, float(xs[-1]))
    cell = np.clip(np.searchsorted(xs, nodes, side="right") - 1, 0, xs.size - 2)
    return inside, h, nodes, cell, nodes - xs[cell]


def _abel_values(abel_nodes: tuple[np.ndarray, ...], xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    # W at the radii of abel_nodes for the even marginal fs on xs.  The spline
    # clamps pr'(0) = 0; pr' at the nodes is summed as PPoly.derivative(1) does.
    from scipy.interpolate import CubicSpline

    inside, h, nodes, cell, s = abel_nodes
    c = CubicSpline(xs, fs, bc_type=((1, 0.0), "not-a-knot")).c
    d1 = np.take(c[2], cell) + np.take(2.0 * c[1], cell) * s + np.take(3.0 * c[0], cell) * (s * s)
    # -pr'(X) / X, continued by its limit -pr''(0) = -2 c1 at X = 0.
    # Negating here rather than the sum keeps W = +0.0 where the chord is empty.
    g = np.divide(-d1, nodes, out=np.full(nodes.shape, -2.0 * c[1, 0]), where=nodes > 0.0)
    return _chord_sum(inside, h, g) / np.pi


def abel_inverse(x, density=None, *, r_max: float = 4.0,
                 n_radii: int = 401) -> RadialWignerProfile:
    """Invert an even quadrature marginal to the radial Wigner profile.

    Accepts a GridDensity or a pair of arrays (grid, density values); the
    grid must be uniform with spacing <= ABEL_MAX_SPACING and reach at least
    ABEL_MIN_RANGE, either one-sided from 0 or symmetric about 0.  Returns
    W on n_radii equally spaced radii in [0, r_max].
    """
    if density is None:
        if not isinstance(x, GridDensity):
            raise ValidationError("pass a GridDensity or two arrays (grid, density)")
        grid, f = x.x, x.density
    else:
        grid = np.asarray(x, dtype=float)
        f = np.asarray(density, dtype=float)
    if grid.ndim != 1 or grid.shape != f.shape or grid.size < 9:
        raise ValidationError("grid and density must be matching 1-d arrays (>= 9 points)")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(f))):
        raise ValidationError("grid and density must be finite")
    spacing = np.diff(grid)
    if np.any(spacing <= 0) or not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValidationError("marginal grid must be uniform and increasing")

    xs, fs = _fold_even(grid, f)
    h = float(xs[1] - xs[0])
    x_max = float(xs[-1])
    if x_max < ABEL_MIN_RANGE:
        raise ValidationError(
            f"marginal grid reaches only |X| = {x_max:g}; the inversion integral "
            f"needs range >= {ABEL_MIN_RANGE:g}"
        )
    if h > ABEL_MAX_SPACING:
        raise ValidationError(
            f"marginal grid spacing {h:g} too coarse for the inversion; "
            f"need <= {ABEL_MAX_SPACING:g}"
        )
    if not 0.0 < r_max <= x_max:
        raise ValidationError(f"r_max must lie in (0, {x_max:g}], got {r_max}")
    if n_radii < 2:
        raise ValidationError("n_radii must be >= 2")

    radii = np.linspace(0.0, r_max, n_radii)
    return RadialWignerProfile(radii=radii, values=_abel_values(_abel_nodes(xs, radii), xs, fs))


def wigner_to_marginal(profile: RadialWignerProfile, x) -> np.ndarray:
    """Project a radial Wigner profile back to its quadrature marginal.

    pr(X) = 2 * integral_0^V W(sqrt(X^2 + v^2)) dv with V = sqrt(R_max^2 -
    X^2); the profile is taken as zero beyond its largest radius.  Used as a
    forward-consistency check on reconstructions.
    """
    from scipy.interpolate import CubicSpline

    xq = np.atleast_1d(np.asarray(x, dtype=float))
    radii, values = np.asarray(profile.radii, dtype=float), np.asarray(profile.values, dtype=float)
    if not all(np.all(np.isfinite(a)) for a in (radii, values, xq)):
        raise ValidationError("profile and x must be finite")
    if (radii.ndim != 1 or radii.size < 2 or values.shape != radii.shape
            or np.any(np.diff(radii) <= 0.0)):
        raise ValidationError("profile needs one value per radius on >= 2 increasing radii")
    r_max = float(radii[-1])
    spl = CubicSpline(radii, values, bc_type=((1, 0.0), "not-a-knot"))
    inside, h, nodes = _chord_nodes(xq, r_max)
    out = 2.0 * _chord_sum(inside, h, spl(nodes))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def reconstruct_profile(values, *, n_bins: int = 1200, lo: float = -6.0, hi: float = 6.0,
                        bandwidth: float | None = None, bandwidth_scale: float = 1.0,
                        grid_max: float = 6.0, grid_points: int = 2401,
                        r_max: float = 4.0, n_radii: int = 401,
                        ) -> tuple[MarginalHistogram, GridDensity, RadialWignerProfile]:
    """Convenience chain: bin -> smooth -> invert on calibrated samples."""
    hist = bin_samples(values, n_bins=n_bins, lo=lo, hi=hi)
    dens = smooth_marginal(hist, bandwidth=bandwidth, bandwidth_scale=bandwidth_scale,
                           grid_max=grid_max, grid_points=grid_points)
    profile = abel_inverse(dens, r_max=r_max, n_radii=n_radii)
    return hist, dens, profile


def bootstrap_profile(values, n_boot: int = 32, seed: int = 0, *, n_bins: int = 1200,
                      lo: float = -6.0, hi: float = 6.0, bandwidth: float | None = None,
                      bandwidth_scale: float = 1.0, grid_max: float = 6.0,
                      grid_points: int = 2401, r_max: float = 4.0,
                      n_radii: int = 401) -> RadialWignerProfile:
    """reconstruct_profile's profile (same keywords) with pointwise bootstrap
    standard errors: the per-radius standard deviation over `n_boot` replicates,
    each resampling the values with replacement and rerunning bin -> smooth ->
    invert.  With bandwidth=None each replicate re-estimates its Silverman
    bandwidth, so the band includes bandwidth variability; an explicit
    bandwidth makes the band conditional on it (Silverman 1986).
    """
    for name, value, least in (("n_boot", n_boot, 2), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    pos, edges = _bin_positions(values, None, n_bins=n_bins, lo=lo, hi=hi)
    smooth = dict(bandwidth=bandwidth, bandwidth_scale=bandwidth_scale,
                  grid_max=grid_max, grid_points=grid_points)
    dens = smooth_marginal(_tally(pos, edges), **smooth)
    base = abel_inverse(dens, r_max=r_max, n_radii=n_radii)
    xs = _fold_even(dens.x, dens.density)[0]
    nodes = _abel_nodes(xs, base.radii)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    stack = np.empty((n_boot, base.values.size))
    for row in stack:
        rep = smooth_marginal(_tally(pos[rng.integers(0, pos.size, size=pos.size)], edges),
                              **smooth)
        row[:] = _abel_values(nodes, xs, _fold_even(rep.x, rep.density)[1])
    return replace(base, stderr=np.std(stack, axis=0, ddof=1))


# ---------------------------------------------------------------------------
# Efficiency fit


@dataclass(frozen=True)
class EfficiencyFit:
    """One-parameter efficiency estimate on calibrated signal samples."""

    eta_hat: float
    eta_stderr: float
    objective: float
    method: str
    at_boundary: bool
    n_used: int


def _mle_score(eta: float, t: np.ndarray) -> float:
    # d/d eta of sum log(1 + eta t); strictly decreasing in eta.
    return float(np.sum(t / (1.0 + eta * t)))


def _fisher_stderr(eta: float, t: np.ndarray) -> float:
    denom = np.maximum(1.0 + eta * t, 1e-300)
    info = float(np.sum((t / denom) ** 2))
    if info <= 0.0:
        return float(np.inf)
    return float(1.0 / np.sqrt(info))


def _negative_log_likelihood(eta: float, x2: np.ndarray, t: np.ndarray) -> float:
    core = np.log(np.maximum(1.0 + eta * t, 1e-300))
    const = 0.5 * np.log(2.0 / np.pi)
    return float(-np.sum(const - 2.0 * x2 + core))


def fit_efficiency(values, method: str = "mle",
                   min_samples: int = MIN_FIT_SAMPLES) -> EfficiencyFit:
    """Fit the efficiency of the vacuum/one-photon mixture.

    The density is pr_eta(X) = pr_0(X) (1 + eta (4 X^2 - 1)), linear in eta,
    so the log-likelihood is strictly concave and the score equation

        sum_k (4 x_k^2 - 1) / (1 + eta (4 x_k^2 - 1)) = 0

    has at most one root in [0, 1]; when the score does not change sign the
    estimate sits on the boundary and is flagged.  The standard error is the
    inverse square root of the observed Fisher information.

    method "hist" instead minimizes the squared distance between a binned
    empirical density (Scott's rule) and the model; its standard error is
    also the information bound, recorded for comparability.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValidationError("expected a 1-d array of calibrated values")
    if values.size < min_samples:
        raise ValidationError(
            f"efficiency fit needs at least {min_samples} samples, got {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError("values contain non-finite entries")

    from scipy import optimize

    x2 = values * values
    t = 4.0 * x2 - 1.0

    if method == "mle":
        score0 = _mle_score(0.0, t)
        score1 = _mle_score(1.0, t)
        if score0 <= 0.0:
            eta_hat, at_boundary = 0.0, True
        elif score1 >= 0.0:
            eta_hat, at_boundary = 1.0, True
        else:
            try:
                eta_hat = float(optimize.brentq(_mle_score, 0.0, 1.0, args=(t,),
                                                xtol=1e-12, maxiter=200))
            except (RuntimeError, ValueError) as exc:
                raise NumericsError(f"efficiency likelihood fit failed: {exc}") from exc
            at_boundary = False
        return EfficiencyFit(
            eta_hat=eta_hat,
            eta_stderr=_fisher_stderr(eta_hat, t),
            objective=_negative_log_likelihood(eta_hat, x2, t),
            method="mle",
            at_boundary=at_boundary,
            n_used=values.size,
        )

    if method == "hist":
        if np.std(values, ddof=1) == 0.0:
            raise NumericsError("signal block has zero variance; cannot fit")
        centers, density = _scott_density(values)

        def sse(eta: float) -> float:
            return float(np.sum((density - marginal_density(eta, centers)) ** 2))

        sol = optimize.minimize_scalar(sse, bounds=(0.0, 1.0), method="bounded",
                                       options={"xatol": 1e-10})
        if not sol.success:
            raise NumericsError(f"histogram efficiency fit failed: {sol.message}")
        eta_hat = float(sol.x)
        return EfficiencyFit(
            eta_hat=eta_hat,
            eta_stderr=_fisher_stderr(eta_hat, t),
            objective=float(sol.fun),
            method="hist",
            at_boundary=bool(eta_hat < 1e-6 or eta_hat > 1.0 - 1e-6),
            n_used=values.size,
        )

    raise ValidationError(f"unknown fit method {method!r}")


# ---------------------------------------------------------------------------
# Diagonal sampling


@dataclass(frozen=True)
class DiagonalEstimate:
    """Density-matrix diagonal rho_nn with statistical errors.

    sigma_nn is the centred estimate sqrt((mean(v^2) - mean(v)^2) / N) for
    v = pi f_nn(x); sigma_nn_uncentered keeps the raw second moment
    sqrt(mean(v^2) / N).  The centred form is the variance of the empirical
    mean; the uncentered form is reported alongside for comparison with the
    plain second-moment convention.
    """

    n: int
    rho_nn: float
    sigma_nn: float
    sigma_nn_uncentered: float


def sample_diagonals(values, n_max: int = MAX_ORDER) -> list[DiagonalEstimate]:
    """Estimate rho_nn for n = 0..n_max from calibrated quadratures.

    rho_nn is the sample mean of pi f_nn(x_k); no binning or smoothing is
    involved, so the estimates carry clean statistical errors.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("expected a non-empty 1-d array of calibrated values")
    if not np.all(np.isfinite(values)):
        raise ValidationError("values contain non-finite entries")
    if not 0 <= n_max <= MAX_ORDER:
        raise ValidationError(f"n_max must be in 0..{MAX_ORDER}, got {n_max}")
    n_samples = values.size
    out = []
    for n in range(n_max + 1):
        v = np.pi * np.asarray(pattern_function(n, values))
        rho = float(np.mean(v))
        m2 = float(np.mean(v * v))
        var_centered = max(m2 - rho * rho, 0.0)
        out.append(DiagonalEstimate(
            n=n,
            rho_nn=rho,
            sigma_nn=float(np.sqrt(var_centered / n_samples)),
            sigma_nn_uncentered=float(np.sqrt(m2 / n_samples)),
        ))
    return out
