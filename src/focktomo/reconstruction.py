"""Reconstruction of the phase-averaged Wigner function and photon-number
diagonals from calibrated quadrature samples.

Pipeline pieces, each usable on its own:

  bin_samples      half-open uniform binning with explicit under/overflow
  smooth_marginal  binned Gaussian-kernel density estimate, even in X
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
The rule's nodes lie on chords that wigner_to_marginal shares: the forward
projection pr(X) = 2 * integral_0^V W(sqrt(X^2 + v^2)) dv is the same
integral over a chord of the disc of radius R_max.  Both directions
interpolate with one local cubic, the cubic Hermite interpolant on knots
j * step from 0 (the marginal's grid and the profile's radii are checked
for it), a chord node's interval being node / step.  Its knot slopes are the
fourth-order central difference of the values, in steps (-d[i-2] + 7 d[i-1]
+ 7 d[i] - d[i+1]) / 12 over the interval slopes d = diff(y), with y
mirrored evenly about the first knot (so the slope there is 0) and d = 0
beyond the last: each slope needs four neighbouring values, and no system
is solved.  Against the closed form at eta = 0.553, on the default grid
and radii, the pair is within 2.2e-7 of W and 1.6e-9 of pr for |X| < 3.9.

For a fixed grid and fixed radii the inversion is linear, so it is one
matrix M (radii x grid intervals) applied to the interval differences
diff(pr) on the knots from 0: abel_inverse is one matrix-vector product and
bootstrap_profile evaluates every replicate in one matrix product.  M is
built analytically (Simpson weights, the cubic's Hermite derivative weights
and the slope stencil's transpose), in one pass over blocks of 32 radii
into one buffer of M's size, and kept read-only in a module cache of the
ABEL_CACHED_GRIDS most recently used keys, four numbers: the grid's reach,
its knot count, r_max and n_radii.  The blocks change no bit of M.  On the
default grid (2401 points, 401 radii) M holds 401 x 1200 doubles, 3.9 MB; a
cold build peaks at 5.2 MB under tracemalloc (6.4 MB in blocks of 64 radii,
which took a fresh `focktomo reconstruct` of the reference run from 40.7 to
42.6 MB resident: ru_maxrss medians of 10, 2-core Linux, numpy 2.4.6).
wigner_to_marginal evaluates its cubic on the chord nodes directly, once
per distinct |X|, in blocks of 64 chords that stay in cache.  The histogram
is the chain's only two-sided array.

The module needs numpy alone: the efficiency likelihood is maximized by a
safeguarded Newton iteration and the histogram fit has a closed form.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ValidationError, check_count, check_positive, check_samples
from .patterns import MAX_ORDER, _scaled_kernels
from .states import marginal_density

# Abel inversion rejects marginals whose grid stops short of this radius or
# is sampled more coarsely than this spacing.
ABEL_MIN_RANGE = 4.0
ABEL_MAX_SPACING = 0.02

# The inversion keeps its linear operator for this many (reach, knot count,
# r_max, n_radii) keys.
ABEL_CACHED_GRIDS = 4

# The chain's grid, the stages' defaults and ReconstructionConfig's
# constants: GRID_POINTS smoothing nodes on [-GRID_MAX, GRID_MAX], of which
# the even marginal keeps the GRID_POINTS // 2 + 1 on [0, GRID_MAX], N_BINS
# histogram bins over the whole range, two grid steps each, and N_RADII
# profile radii on [0, R_MAX].
GRID_MAX = 6.0
GRID_POINTS = 2401
N_BINS = (GRID_POINTS - 1) // 2
R_MAX = 4.0
N_RADII = 401

# Rule-based bandwidths and the efficiency fit need this many samples.
MIN_FIT_SAMPLES = 1000
MIN_SMOOTH_SAMPLES = 1000

# The least share of the kernel sum that the smoothing grid must hold.
MIN_GRID_SHARE = 0.999

_SIMPSON_NODES = 401
_SIMPSON_WEIGHTS = np.ones(_SIMPSON_NODES)
_SIMPSON_WEIGHTS[1:-1:2] = 4.0
_SIMPSON_WEIGHTS[2:-2:2] = 2.0
_CHORD_BLOCK = 64  # wigner_to_marginal's chords at a time: 200 kB node arrays
_ABEL_BLOCK = 32  # _abel_operator's radii at a time: 1.3 MB of scratch


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


def bin_samples(values, *, n_bins: int = N_BINS, lo: float = -GRID_MAX,
                hi: float = GRID_MAX) -> MarginalHistogram:
    """Bin calibrated quadratures into `n_bins` uniform bins over [lo, hi].

    `values` must be a 1-d array of finite floats, and `lo` and `hi` finite
    with a finite width hi - lo > 0, cut into bins no narrower than 2**-40 of
    max(|lo|, |hi|) or the smallest normal double.  Out-of-range samples are
    tallied, never dropped silently.  A value's bin is the count of
    np.linspace(lo, hi, n_bins + 1) edges <= it, as np.searchsorted(...,
    side="right") gives it.
    """
    values = check_samples(values, "binning")
    n_bins = check_count("n_bins", n_bins, 1)
    # Python floats: a width that overflows is inf, without a warning.
    width = float(hi) - float(lo)
    if not (np.isfinite(width) and width > 0.0):
        raise ValidationError(f"bin range needs finite lo < hi with a finite width, "
                              f"got lo={lo!r}, hi={hi!r}")
    # The binning below is exact on bins at least 2**-40 of the range's
    # magnitude, and normal; compared as counts, so n_bins stays an int.
    magnitude = max(abs(float(lo)), abs(float(hi)))
    if n_bins > min(2.0**40 * width / magnitude, width / sys.float_info.min):
        raise ValidationError(f"bin range lo={lo!r}, hi={hi!r} is too narrow for {n_bins} bins: "
                              f"a bin must be normal and >= 2**-40 of max(|lo|, |hi|)")
    bin_edges = np.linspace(lo, hi, n_bins + 1)
    # searchsorted(bin_edges, values, side="right") by arithmetic.  On bins
    # that wide each rounding, here or in linspace, is under 2**-11 of a bin
    # (a few ulps of max(|lo|, |hi|) or of n + 1 bins), so the guess
    # floor((x - lo) n / (hi - lo)) + 1, clipped to [0, n + 1], is off by at
    # most one, and one comparison with the edges each way (padded by -inf
    # and inf) makes it exact.
    with np.errstate(over="ignore"):  # a value far outside gives inf, then n + 1
        guess = (values - lo) * (n_bins / width)
    guess += 1.0
    np.clip(guess, 0.0, n_bins + 1.0, out=guess)
    pos = guess.astype(np.intp)
    padded = np.concatenate(([-np.inf], bin_edges, [np.inf]))
    pos -= values < padded[pos]
    pos += values >= padded[1:][pos]
    # Position 0 is underflow, position k the bin k - 1, the last overflow.
    tally = np.bincount(pos, minlength=n_bins + 2)
    return MarginalHistogram(bin_edges=bin_edges, counts=tally[1:-1], n_total=values.size,
                             underflow=int(tally[0]), overflow=int(tally[-1]))


def _scott_density(values: np.ndarray, mean: float,
                   std: float) -> tuple[np.ndarray, np.ndarray]:
    # Empirical density on Scott's-rule bins over mean +- 5 std, wide enough
    # that essentially no Gaussian mass is clipped; at least 8 bins.  Returns
    # (bin centers, density).  Callers pass the values' mean and sample
    # standard deviation (ddof=1), and check the spread is non-zero.
    n = values.size
    width = 3.49 * std * n ** (-1.0 / 3.0)
    lo, hi = mean - 5.0 * std, mean + 5.0 * std
    n_bins = max(int(np.ceil((hi - lo) / width)), 8)
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts / (n * (edges[1] - edges[0]))


# ---------------------------------------------------------------------------
# Kernel density smoothing


@dataclass(frozen=True)
class GridDensity:
    """Smoothed marginal pr on the knots x = j * step of [0, grid_max].

    The marginal is even, pr(-X) = pr(X), so the half-line holds all of it:
    2 * trapezoid(density, x) is 1.
    """

    x: np.ndarray
    density: np.ndarray
    bandwidth: float


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
    return float(0.9 * spread * n_in ** (-0.2))


def smooth_marginal(hist: MarginalHistogram, *, bandwidth: float | None = None,
                    bandwidth_scale: float = 1.0, grid_max: float = GRID_MAX,
                    grid_points: int = GRID_POINTS) -> GridDensity:
    """Gaussian-kernel estimate of the even quadrature marginal.

    Kernels are centred on the histogram bins (weights = counts).  Their
    sum's even part is taken over the occupied bins on the grid_points // 2
    + 1 knots j * step of [0, grid_max] (grid_points odd, >= 101), the half
    of the grid_points nodes on [-grid_max, grid_max] that the even estimate
    needs, and normalized to 1 over the whole grid: twice its trapezoid
    integral on the knots is 1.  The one rule for the bins: they are the
    grid's own, (grid_points - 1) / 2 of two grid steps over [-grid_max,
    grid_max], hist.bin_edges being np.linspace(-grid_max, grid_max,
    grid_points // 2 + 1) to 8 ulps of grid_max (bin_samples' defaults on the
    default grid); any other bins raise ValidationError.  It sums the folded
    counts counts + counts[::-1], one convolution with the kernel's polyphase
    slice kernel[p::2] per parity p of the knots.  A kernel term below the
    smallest normal double (2.2e-308, |x - c| more than about 37.6
    bandwidths) counts as 0.

    With bandwidth=None the Silverman rule scaled by `bandwidth_scale` is
    used, and at least MIN_SMOOTH_SAMPLES in-range samples are required; an
    explicit `bandwidth` lifts that floor.  For every bandwidth the grid must
    hold at least MIN_GRID_SHARE (0.999) of the kernel sum before it is
    normalized, else a wider kernel's renormalized remnant would pass for the
    marginal (one sample at |X| = 5.99 of 12000 loses only 4e-5 on the
    default grid).  grid_max, bandwidth_scale and the bandwidth used must be
    positive and finite, and at least the bin width, two grid steps (a
    narrower kernel spikes on the grid nodes nearest each bin centre).
    """
    # On the grid's own bins the even part is half the sum over the folded
    # counts, and x_i - c_j depends only on the lag i - 2j, counted in steps
    # from the grid's first node -half[-1].
    half = _smoothing_grid(grid_max, grid_points)
    edges = hist.bin_edges
    own = np.linspace(-half[-1], half[-1], half.size)
    if not (edges.shape == own.shape
            and np.abs(edges - own).max() <= 8.0 * np.finfo(float).eps * half[-1]):
        raise ValidationError(f"bin edges must be the smoothing grid's own bins: "
                              f"np.linspace({-half[-1]:g}, {half[-1]:g}, {half.size}), "
                              f"{half.size - 1} bins of two grid steps")

    n_in = hist.n_in_range
    if n_in == 0:
        raise ValidationError("histogram holds no in-range samples")
    if bandwidth is None:
        if n_in < MIN_SMOOTH_SAMPLES:
            raise ValidationError(
                f"rule-based bandwidth needs >= {MIN_SMOOTH_SAMPLES} samples, got {n_in}; "
                "pass an explicit bandwidth"
            )
        check_positive("bandwidth_scale", bandwidth_scale)
        # Python floats: a product that overflows is inf, without a warning.
        bandwidth = float(bandwidth_scale) * silverman_bandwidth(hist)
    check_positive("bandwidth", bandwidth)
    if bandwidth < hist.bin_width:
        raise ValidationError(f"bandwidth {bandwidth:g} too small for the grid spacing "
                              f"{half[1]:g} and the bin width {hist.bin_width:g}")
    kernel_norm = n_in * float(bandwidth) * math.sqrt(2.0 * math.pi)
    if not math.isfinite(kernel_norm):
        raise ValidationError(f"bandwidth {bandwidth:g} too large: the kernel normalisation "
                              f"n * bandwidth * sqrt(2 pi) overflows")

    # The even part of sum_j counts_j exp(-((x - c_j) / bandwidth)^2 / 2) on
    # the knots x = half, half the folded counts' sum: the knots i = p (mod 2)
    # are one short convolution of the occupied folded counts with the
    # polyphase slice kernel[p::2], from the lag of knot 0 to the last
    # occupied bin.  The kernel holds x - c_first at those lags.
    folded = hist.counts + hist.counts[::-1]
    first = int(np.flatnonzero(folded)[0])  # the last is k - 1 - first
    c = folded[first:folded.size - first]
    first_center = 0.5 * (edges[0] + edges[1])
    k = half.size - 1
    step = half[-1] / k
    lags = np.arange(2 * (first + 1) - k, 2 * (k - first) + 1)
    kernel = _gaussian(((-half[-1] - first_center) + step * lags) / bandwidth)
    out = np.empty(half.size)
    for p in (0, 1):
        out[p::2] = np.convolve(c, kernel[p::2][:out[p::2].size + c.size - 1], mode="valid")
    out *= 0.5
    out /= kernel_norm
    norm = 2.0 * np.trapezoid(out, half)
    if not norm >= MIN_GRID_SHARE:
        raise ValidationError(f"bandwidth {bandwidth:g} too wide for the smoothing grid "
                              f"[{-half[-1]:g}, {half[-1]:g}]: it holds {norm:.3g} of the "
                              f"kernel sum, below {MIN_GRID_SHARE}")
    out /= norm
    return GridDensity(x=half, density=out, bandwidth=float(bandwidth))


def _smoothing_grid(grid_max: float, grid_points: int) -> np.ndarray:
    # smooth_marginal's knots j * step on [0, grid_max], checked: the
    # non-negative half of grid_points nodes on [-grid_max, grid_max], with 0
    # in the middle.
    grid_points = check_count("grid_points", grid_points, 101)
    if grid_points % 2 == 0:
        raise ValidationError("grid_points must be odd so 0 is a grid node")
    check_positive("grid_max", grid_max)
    return np.linspace(0.0, grid_max, grid_points // 2 + 1)


def _gaussian(z: np.ndarray) -> np.ndarray:
    # exp(-z^2 / 2) in place of z, each term below the smallest normal double
    # (|z| > 37.6) set to 0, since subnormal arithmetic slows the sums that
    # follow several times over; on the reference runs such terms moved no
    # density value by more than 1e-311.
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    z[z < sys.float_info.min] = 0.0
    return z


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


def _check_knots(x: np.ndarray, what: str) -> None:
    # Reject x other than the knots j * step from 0 for the nominal step
    # x[-1] / (n - 1), to 1e-9 of a step: the Abel pair puts its knots on
    # that lattice and finds a node's interval by one division.
    step = float(x[-1]) / (x.size - 1)
    if not (0.0 < step < math.inf and np.allclose(x, step * np.arange(x.size),
                                                  rtol=0.0, atol=1e-9 * step)):
        raise ValidationError(f"{what} must be increasing knots j * step from 0")


def _slopes(e: np.ndarray) -> np.ndarray:
    # The fourth-order central difference (7 (e[i+1] + e[i+2]) - (e[i] + e[i+3]))
    # / 12 along axis 0, for i = 0 .. len(e) - 4.  On the interval slopes d =
    # diff(y) padded as d[-2], d[-1], d, 0, 0, with d[-1] = -d[0] and d[-2] =
    # -d[1] (y mirrored evenly about the first knot, so s[0] = 0 exactly) and 0
    # beyond the last knot, it gives the knot slopes s of the Abel pair's cubic;
    # _abel_operator applies its transpose.
    s = e[1:-2] + e[2:-1]
    s *= 7.0
    s -= e[:-3]
    s -= e[3:]
    s /= 12.0
    return s


def _cubic_coefficients(y: np.ndarray) -> np.ndarray:
    # The cubic Hermite interpolant of y on the knots j * step with _slopes'
    # knot slopes, in steps: knot slopes s and interval slopes d = diff(y) are
    # per step.  Returns c (4, n - 1), highest power first: on interval i the
    # cubic is c[0, i] u^3 + c[1, i] u^2 + c[2, i] u + c[3, i] with u = X / step - i.
    d = np.diff(y)
    e = np.zeros(d.size + 4)
    e[2:-2] = d
    e[:2] = -e[3:1:-1]
    s = _slopes(e)
    t = s[:-1] + s[1:] - 2.0 * d
    return np.stack([t, d - s[:-1] - t, s[:-1], y[:-1]])


def _abel_nodes(length: float, n_knots: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
    # Simpson nodes of integral_0^sqrt(L^2 - p^2) g(sqrt(p^2 + v^2)) dv, a chord
    # of the disc of radius L = length, at each point p, for a cubic on n_knots
    # uniform knots from 0 to L: the mask of points with |p| < L, their node
    # spacings h, the nodes (radii sqrt(p^2 + v^2), v as np.linspace(0, span, n)
    # builds them), and each node's interval and place u in it, in steps.  A
    # point so far out that p^2 overflows (|p| > 1.34e154) gets -inf: outside.
    with np.errstate(over="ignore"):
        span_sq = length * length - points * points
    inside = span_sq > 0.0
    span = np.sqrt(span_sq[inside])
    h = span / (_SIMPSON_NODES - 1)
    p = points[inside, None]
    nodes = np.arange(_SIMPSON_NODES) * h[:, None]  # v, squared in place below
    nodes[:, -1] = span
    nodes *= nodes
    nodes += p * p
    np.sqrt(nodes, out=nodes)
    # Interval i holds i <= u < i + 1; the last also holds its end, L.
    u = nodes / (length / (n_knots - 1))
    cell = u.astype(np.intp)
    np.minimum(cell, n_knots - 2, out=cell)
    u -= cell
    return inside, h, nodes, cell, u


def _abel_node_weights(reach: float, n_knots: int,
                       r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # For the chord nodes of W at the radii r (from 0) on n_knots knots up to
    # reach: each node's weights w on the knot slope s[i] at its interval's left
    # end, on s[i+1] and on the interval slope d[i], and the flat (knot, radius)
    # places of the first two.  W sums -q pr'(X) / X over the nodes, q the
    # Simpson weight / pi, and the interpolant's pr' at the node is the cubic
    # Hermite mix ((1-u)(1-3u) s[i] + u(3u-2) s[i+1] + 6u(1-u) d[i]) / step
    # for its place u in the interval.
    step = reach / (n_knots - 1)
    inside, h, nodes, cell, u = _abel_nodes(reach, n_knots, r)
    q = (h / (3.0 * np.pi * step))[:, None] * _SIMPSON_WEIGHTS
    np.divide(q, nodes, out=q, where=nodes > 0.0)  # q / X
    # In place, from u(1-u): w[0] = q (3u(1-u) + u - 1) = -q (1-u)(1-3u),
    # w[1] = q (3u(1-u) - u) = -q u(3u-2) and w[2] = -6q u(1-u).
    w = np.empty((3, *u.shape))
    np.subtract(1.0, u, out=w[2])
    w[2] *= u
    np.multiply(w[2], 3.0, out=w[0])
    w[0] += u
    w[0] -= 1.0
    w[0] *= q
    np.multiply(w[2], 3.0, out=w[1])
    w[1] -= u
    w[1] *= q
    w[2] *= -6.0
    w[2] *= q
    if r[0] == 0.0:  # X = 0 on the R = 0 chord: the limit -pr''(0) = 2 (s[1] - 3 d[0]) / step^2
        q00 = h[0] / (3.0 * np.pi * step)  # its node's q, Simpson weight 1
        w[:, 0, 0] = 0.0, 2.0 * q00 / step, -6.0 * q00 / step
    index = np.empty((2, *cell.shape), dtype=cell.dtype)
    np.multiply(cell, r.size, out=index[0])
    index[0] += np.flatnonzero(inside)[:, None]
    np.add(index[0], r.size, out=index[1])
    return w, index


@functools.lru_cache(maxsize=ABEL_CACHED_GRIDS)
def _abel_operator(reach: float, n_knots: int, r_max: float, n_radii: int) -> np.ndarray:
    # The read-only matrix M (radii x intervals) with W = M @ diff(f) for the
    # even marginal f on n_knots uniform knots from 0 to reach, at the radii
    # np.linspace(0, r_max, n_radii).  The knot slopes are s = S d, S the
    # stencil of _slopes on the padded interval slopes d = diff(f); with G the
    # node weights on s (knots x radii), M^T = (node weights on d) + S^T G.
    # S^T G is the same stencil on G padded as -G[1], 0 in place of G[0] (s[0]
    # = 0), G[1:], 0.  Each block of _ABEL_BLOCK radii bins its node weights
    # once, on s and on d, and writes its columns of M^T in one pass, so that
    # no more than one block's nodes are held; each (knot, radius) sum runs
    # over the same nodes in the same order whatever the block size.  Needs
    # >= 2 knots and 0 < r_max <= reach.
    r = np.linspace(0.0, r_max, n_radii)
    m_t = np.empty((n_knots - 1, n_radii))
    for start in range(0, n_radii, _ABEL_BLOCK):
        cols = slice(start, start + _ABEL_BLOCK)
        w, index = _abel_node_weights(reach, n_knots, r[cols])
        width = r[cols].size
        g = np.bincount(index.ravel(), w[:2].ravel(),
                        minlength=n_knots * width).reshape(n_knots, width)
        m_t[:, cols] = np.bincount(index[0].ravel(), w[2].ravel(),
                                   minlength=(n_knots - 1) * width).reshape(-1, width)
        del w, index  # before the next block's
        g[0] = 0.0
        m_t[:, cols] += _slopes(np.concatenate((-g[1:2], g, np.zeros((1, width)))))
    m_t.flags.writeable = False
    return m_t.T


def _check_abel_reach(xs: np.ndarray) -> float:
    # Reject knots xs from 0 that stop short of ABEL_MIN_RANGE or are coarser
    # than ABEL_MAX_SPACING; returns their reach xs[-1].  The nominal step,
    # not one subtraction, so that rounding does not decide at the bound.
    x_max = float(xs[-1])
    h = x_max / (xs.size - 1)
    if x_max < ABEL_MIN_RANGE:
        raise ValidationError(
            f"marginal grid reaches only |X| = {x_max:g}; the inversion integral "
            f"needs range >= {ABEL_MIN_RANGE:g}"
        )
    if h > ABEL_MAX_SPACING:
        raise ValidationError(
            f"marginal grid spacing {h!r} too coarse for the inversion; "
            f"need <= {ABEL_MAX_SPACING:g}"
        )
    return x_max


def _abel_grid(x, density, r_max: float, n_radii: int) -> tuple[np.ndarray, ...]:
    # abel_inverse's checks; returns the marginal on its knots from 0, the
    # radii and the operator M for them.
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
    _check_knots(grid, "marginal grid")
    x_max = _check_abel_reach(grid)
    if not 0.0 < r_max <= x_max:
        raise ValidationError(f"r_max must lie in (0, {x_max:g}], got {r_max}")
    n_radii = check_count("n_radii", n_radii, 2)
    matrix = _abel_operator(x_max, grid.size, float(r_max), n_radii)
    return f, np.linspace(0.0, r_max, n_radii), matrix


def abel_inverse(x, density=None, *, r_max: float = R_MAX,
                 n_radii: int = N_RADII) -> RadialWignerProfile:
    """Invert an even quadrature marginal to the radial Wigner profile.

    Accepts a GridDensity or a pair of arrays (grid, density values) on the
    half-line: the grid must be the knots j * step from 0 (to 1e-9 of a
    step), with step <= ABEL_MAX_SPACING and reach at least ABEL_MIN_RANGE,
    and the density pr there, pr(-X) = pr(X) being implied.  Returns W on
    n_radii equally spaced radii in [0, r_max].
    """
    fs, radii, matrix = _abel_grid(x, density, r_max, n_radii)
    return RadialWignerProfile(radii=radii, values=matrix @ np.diff(fs))


def wigner_to_marginal(profile: RadialWignerProfile, x) -> np.ndarray:
    """Project a radial Wigner profile back to its quadrature marginal.

    pr(X) = 2 * integral_0^V W(sqrt(X^2 + v^2)) dv with V = sqrt(R_max^2 -
    X^2); the profile is interpolated by the cubic abel_inverse uses, on
    radii j * step from 0 (to 1e-9 of a step, as abel_inverse returns them
    and as it takes the marginal's grid), and taken as zero beyond its
    largest radius.  The projection is even in X, so it is evaluated once
    per distinct |X|, in blocks of _CHORD_BLOCK chords.  Returns x's shape
    (a float for a scalar).  Used as a forward-consistency check on
    reconstructions.
    """
    xq = np.asarray(x, dtype=float)
    radii, values = np.asarray(profile.radii, dtype=float), np.asarray(profile.values, dtype=float)
    if not all(np.all(np.isfinite(a)) for a in (radii, values, xq)):
        raise ValidationError("profile and x must be finite")
    if radii.ndim != 1 or radii.size < 2 or values.shape != radii.shape:
        raise ValidationError("profile needs one value per radius on >= 2 radii")
    _check_knots(radii, "profile radii")
    c = _cubic_coefficients(values)
    points, where = np.unique(np.abs(xq).ravel(), return_inverse=True)
    out = np.zeros(points.size)
    for start in range(0, points.size, _CHORD_BLOCK):
        # The nodes' buffer is reused for the coefficients; "clip" (every
        # interval is in range) lets take write into it without a temporary.
        _, h, buf, cell, u = _abel_nodes(float(radii[-1]), radii.size,
                                         points[start:start + _CHORD_BLOCK])
        w = np.take(c[0], cell)
        for k in (1, 2, 3):  # Horner
            w *= u
            w += np.take(c[k], cell, out=buf, mode="clip")
        # The points ascend, so the h.size chords inside the disc come first;
        # summed row by row, a chord's value does not depend on its block.
        w *= _SIMPSON_WEIGHTS
        out[start:start + h.size] = 2.0 * ((h / 3.0) * w.sum(axis=1))
    out = out[where].reshape(xq.shape)
    return float(out) if out.ndim == 0 else out


def bootstrap_profile(values, n_boot: int = 32, seed: int = 0, *, n_bins: int | None = None,
                      lo: float | None = None, hi: float | None = None,
                      bandwidth: float | None = None, bandwidth_scale: float = 1.0,
                      grid_max: float = GRID_MAX, grid_points: int = GRID_POINTS,
                      r_max: float = R_MAX, n_radii: int = N_RADII) -> RadialWignerProfile:
    """The profile of bin_samples -> smooth_marginal -> abel_inverse (the
    keywords of each) with pointwise bootstrap standard errors: the per-radius
    standard deviation over `n_boot` replicates, each resampling the values
    with replacement and rerunning smooth -> invert.  A replicate's counts,
    underflow and overflow included, are one multinomial draw of the
    histogram's n_total over its tally, which has the distribution of
    binning n_total values resampled with replacement.  With
    bandwidth=None each replicate re-estimates its Silverman bandwidth, so
    the band includes bandwidth variability; an explicit bandwidth makes the
    band conditional on it (Silverman 1986).  The bins are the grid's own, by
    smooth_marginal's rule: (grid_points - 1) / 2 over [-grid_max, grid_max],
    so n_bins, lo and hi can only repeat them (they go once the stages take
    the chain's grid alone, ROADMAP.md item 25).
    """
    check_count("n_boot", n_boot, 2)
    check_count("seed", seed, 0)
    half = _smoothing_grid(grid_max, grid_points)  # checked before it sets the bins
    hist = bin_samples(values, n_bins=half.size - 1 if n_bins is None else n_bins,
                       lo=-grid_max if lo is None else lo, hi=grid_max if hi is None else hi)
    _check_abel_reach(half)  # before smoothing, whose bandwidth rule can overflow
    smooth = functools.partial(smooth_marginal, bandwidth=bandwidth,
                               bandwidth_scale=bandwidth_scale, grid_max=grid_max,
                               grid_points=grid_points)
    fs, radii, matrix = _abel_grid(smooth(hist), None, r_max, n_radii)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tally = np.concatenate(([hist.underflow], hist.counts, [hist.overflow]))
    diffs = np.empty((n_boot, fs.size - 1))  # each replicate's interval differences
    for row, draw in zip(diffs, rng.multinomial(hist.n_total, tally / hist.n_total,
                                                size=n_boot)):
        rep = smooth(replace(hist, counts=draw[1:-1], underflow=int(draw[0]),
                             overflow=int(draw[-1])))
        row[:] = np.diff(rep.density)
    return RadialWignerProfile(radii=radii, values=matrix @ np.diff(fs),
                               stderr=np.std(diffs @ matrix.T, axis=0, ddof=1))


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


def _mle_score(eta: float, t: np.ndarray) -> tuple[float, np.ndarray | None]:
    # d/d eta of sum log(1 + eta t), strictly decreasing in eta, and its terms
    # t / (1 + eta t).  Where some 1 + eta t is exactly 0 (t = -1, a sample at
    # x = 0, and eta = 1) the score is -inf and nothing is divided: no terms.
    denom = 1.0 + eta * t
    w = t / denom if denom.all() else None
    return (-math.inf if w is None else float(np.sum(w))), w


def _mle_root(t: np.ndarray, tol: float = 1e-12, max_iter: int = 100) -> float:
    # The score's root in (0, 1), given score(0) > 0 > score(1): Newton steps
    # with the score's derivative -sum (t / (1 + eta t))^2, and a bisection of
    # the bracket [lo, hi] that every evaluation narrows whenever a step would
    # leave it or the score is -inf (rtsafe in Press et al., Numerical Recipes).
    lo, hi, eta = 0.0, 1.0, 0.5
    for _ in range(max_iter):
        score, w = _mle_score(eta, t)
        if score == 0.0:
            return eta
        if score > 0.0:
            lo = eta
        else:
            hi = eta
        new = 0.5 * (lo + hi) if w is None else eta + score / float(np.sum(w * w))
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - eta) <= tol or hi - lo <= tol:
            return new
        eta = new
    raise NumericsError(f"efficiency likelihood fit did not converge in {max_iter} steps")


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


def fit_efficiency(values, method: str = "mle") -> EfficiencyFit:
    """Fit the efficiency of the vacuum/one-photon mixture.

    `values` must be a 1-d array of at least MIN_FIT_SAMPLES finite
    calibrated quadratures, each with 4 x^2 - 1 finite in float64 (else
    NumericsError).

    The density is pr_eta(X) = pr_0(X) (1 + eta (4 X^2 - 1)), linear in eta,
    so the log-likelihood is strictly concave and the score equation

        sum_k (4 x_k^2 - 1) / (1 + eta (4 x_k^2 - 1)) = 0

    has at most one root in [0, 1]; when the score does not change sign the
    estimate sits on the boundary and is flagged.  The standard error is the
    inverse square root of the observed Fisher information.

    The root is found by safeguarded Newton steps to 1e-12 in eta; if they
    do not converge, NumericsError is raised.

    method "hist" instead minimizes the squared distance between a binned
    empirical density (Scott's rule) and the model.  The model is
    a + eta b with a = pr_0 and b = pr_0 (4 X^2 - 1), so the minimizer is
    sum b (d - a) / sum b^2 over the bins, clipped to [0, 1].  Its standard
    error is also the information bound, recorded for comparability.
    """
    if method not in ("mle", "hist"):
        raise ValidationError(f"unknown fit method {method!r}")
    values = check_samples(values, "efficiency fit", MIN_FIT_SAMPLES)

    with np.errstate(over="ignore"):  # checked below
        x2 = values * values
        t = 4.0 * x2 - 1.0
    if not np.all(np.isfinite(t)):
        raise NumericsError("efficiency fit: 4 x^2 - 1 overflows float64 at "
                            f"|x| = {float(np.max(np.abs(values))):.3g}")

    if method == "mle":
        if _mle_score(0.0, t)[0] <= 0.0:
            eta_hat, at_boundary = 0.0, True
        elif _mle_score(1.0, t)[0] >= 0.0:
            eta_hat, at_boundary = 1.0, True
        else:
            eta_hat, at_boundary = _mle_root(t), False
        objective = _negative_log_likelihood(eta_hat, x2, t)
    else:
        std = float(np.std(values, ddof=1))
        if std == 0.0:
            raise NumericsError("signal block has zero variance; cannot fit")
        centers, density = _scott_density(values, float(np.mean(values)), std)
        # The model a + eta b is linear in eta, so the SSE is a parabola.
        a = marginal_density(0.0, centers)
        b = a * (4.0 * centers * centers - 1.0)
        bb = float(np.sum(b * b))
        if bb == 0.0:
            raise NumericsError("histogram efficiency fit: the model vanishes on every bin")
        eta_hat = min(max(float(np.sum(b * (density - a))) / bb, 0.0), 1.0)
        at_boundary = bool(eta_hat < 1e-6 or eta_hat > 1.0 - 1e-6)
        objective = float(np.sum((density - marginal_density(eta_hat, centers)) ** 2))
    return EfficiencyFit(eta_hat=eta_hat, eta_stderr=_fisher_stderr(eta_hat, t),
                         objective=objective, method=method, at_boundary=at_boundary,
                         n_used=values.size)


# ---------------------------------------------------------------------------
# Diagonal sampling


@dataclass(frozen=True)
class DiagonalEstimate:
    """Density-matrix diagonal rho_nn with statistical errors.

    sigma_nn is the centred estimate sqrt((mean(v^2) - mean(v)^2) / N) for
    v = pi f_nn(x), the standard error of the empirical mean.
    """

    n: int
    rho_nn: float
    sigma_nn: float


def sample_diagonals(values, n_max: int = MAX_ORDER) -> tuple[DiagonalEstimate, ...]:
    """Estimate rho_nn for n = 0..n_max from calibrated quadratures.

    `values` must be a non-empty 1-d array of finite floats.  rho_nn is the
    sample mean of pi f_nn(x_k); no binning or smoothing is involved, so the
    estimates carry clean statistical errors.  Each term is within 1e-10 of
    pi f_nn(x_k) for |x_k| <= 6; further out f_33's relative error grows, to
    2e-7 at 8, 8e-4 at 20 and 0.19 at 50.  NumericsError is raised if an
    estimate or its error is not finite in float64 (a sample far out, say
    |x| = 1e52 for n = 3).
    """
    values = check_samples(values, "diagonal sampling", 1)
    n_max = check_count("n_max", n_max, 0, MAX_ORDER)
    n_samples = values.size
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for n, v in enumerate(_scaled_kernels(values, n_max)):
            rho = float(np.mean(v))
            m2 = float(np.mean(v * v))
            sigma = float(np.sqrt(max(m2 - rho * rho, 0.0) / n_samples))
            out.append(DiagonalEstimate(n=n, rho_nn=rho, sigma_nn=sigma))
    for d in out:
        if not np.all(np.isfinite([d.rho_nn, d.sigma_nn])):
            raise NumericsError(f"diagonal sampling: rho_{d.n}{d.n} or its error is not finite "
                                f"in float64 (largest |x| {float(np.max(np.abs(values))):.3g})")
    return tuple(out)
