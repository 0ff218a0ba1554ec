import tracemalloc
import warnings
import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.interpolate import CubicSpline, PPoly

from focktomo import pipeline
from focktomo.calibration import rescale
from focktomo.errors import NumericsError, ValidationError
from focktomo.patterns import MAX_ORDER, pattern_function
from focktomo.pipeline import ReconstructionConfig, prepare_run, reconstruct_dataset
from focktomo.reconstruction import (
    ABEL_MAX_SPACING,
    ABEL_MIN_RANGE,
    _CHORD_BLOCK,
    _SIMPSON_NODES,
    _SIMPSON_WEIGHTS,
    GridDensity,
    MarginalHistogram,
    RadialWignerProfile,
    _abel_nodes,
    _abel_operator,
    _bin_positions,
    _check_inversion_grid,
    _knot_system,
    _mle_score,
    _thomas,
    abel_inverse,
    bin_samples,
    _spline_coefficients,
    bootstrap_profile,
    fit_efficiency,
    sample_diagonals,
    silverman_bandwidth,
    smooth_marginal,
    wigner_to_marginal,
)
from focktomo.simulator import RunSpec, generate_run, sample_quadrature
from focktomo.states import marginal_cdf, marginal_density, wigner_radial


def _draws(eta, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return sample_quadrature(eta, n, rng)


# ---------------------------------------------------------------------------
# Binning


def test_bin_hand_enumerated_example():
    hist = bin_samples(np.array([0.0, 1.0, 1.5, 2.0, 3.0, 3.5, -0.2]), n_bins=3, lo=0.0, hi=3.0)
    assert hist.counts.tolist() == [1, 2, 1]
    assert hist.underflow == 1
    assert hist.overflow == 2  # 3.0 sits on the last edge -> overflow
    assert hist.n_total == 7
    assert hist.n_in_range == 4


def test_interior_edge_goes_right():
    hist = bin_samples(np.array([1.0]), n_bins=2, lo=0.0, hi=2.0)
    assert hist.counts.tolist() == [0, 1]


def test_first_edge_goes_to_first_bin():
    hist = bin_samples(np.array([0.0]), n_bins=2, lo=0.0, hi=2.0)
    assert hist.counts.tolist() == [1, 0]


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
                min_size=0, max_size=200))
def test_bin_conservation(values):
    hist = bin_samples(np.array(values, dtype=float), n_bins=24, lo=-6.0, hi=6.0)
    assert hist.counts.sum() + hist.underflow + hist.overflow == hist.n_total
    assert hist.n_total == len(values)


def test_bin_default_grid():
    hist = bin_samples(_draws(0.5, 2000, 1))
    assert hist.bin_edges[0] == -6.0
    assert hist.bin_edges[-1] == 6.0
    assert hist.counts.size == 1200


def test_bin_validation():
    good = np.array([0.1, 0.2])
    with pytest.raises(ValidationError):
        bin_samples(np.array([[0.1]]))
    with pytest.raises(ValidationError):
        bin_samples(np.array([np.nan]))
    with pytest.raises(ValidationError):
        bin_samples(good, n_bins=0)
    # a range whose width hi - lo overflows is rejected before linspace warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in ((-np.inf, 1.0), (0.0, np.nan), (-1e308, 1e308),
                       (np.float64(-1e308), np.float64(1e308)), (1.0, 1.0)):
            with pytest.raises(ValidationError, match="bin range"):
                bin_samples(good, lo=lo, hi=hi)


@st.composite
def _bin_ranges(draw):
    # (lo, hi, n_bins) with bins from 2**-39 of max(|lo|, 1e-3) up to as wide
    # as that: down to the narrowest bins _bin_positions accepts.
    lo = draw(st.floats(min_value=-1e12, max_value=1e12))
    n_bins = draw(st.integers(min_value=1, max_value=2000))
    width = n_bins * max(abs(lo), 1e-3) * 2.0 ** -draw(st.floats(min_value=0.0, max_value=39.0))
    return lo, lo + width, n_bins


@given(_bin_ranges(), st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_bin_positions_match_searchsorted(bin_range, extra):
    # the arithmetic binning rule is the count of linspace edges <= x
    lo, hi, n_bins = bin_range
    edges = np.linspace(lo, hi, n_bins + 1)
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [1e300, -1e300], extra])
    pos, bin_edges = _bin_positions(x, n_bins=n_bins, lo=lo, hi=hi)
    assert np.array_equal(bin_edges, edges)
    assert np.array_equal(pos, np.searchsorted(edges, x, side="right"))


@pytest.mark.parametrize("lo,hi,n_bins", [
    (1e6, 1e6 + 2.0**-19, 10),  # bins 2**-42 of |lo| wide
    (0.0, 1e-300, 10**9),       # bins below the smallest normal double
    (-6.0, 6.0, 10**400),       # more bins than a double can count
])
def test_bins_too_narrow_to_count_by_arithmetic_are_rejected(lo, hi, n_bins):
    with pytest.raises(ValidationError, match="too narrow"):
        bin_samples(np.array([lo]), n_bins=n_bins, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# Smoothing


def test_silverman_matches_raw_sample_rule():
    x = _draws(0.0, 10_000, 2)
    hist = bin_samples(x, n_bins=4000, lo=-6.0, hi=6.0)
    from_hist = silverman_bandwidth(hist)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    direct = 0.9 * min(np.std(x), iqr / 1.34) * x.size ** (-0.2)
    assert from_hist == pytest.approx(direct, rel=0.01)


def test_smooth_vacuum_sup_norm_small():
    x = _draws(0.0, 100_000, 3)
    dens = smooth_marginal(bin_samples(x))
    assert np.max(np.abs(dens.density - marginal_density(0.0, dens.x))) < 0.02


def test_smooth_vacuum_sup_norm_million():
    x = _draws(0.0, 1_000_000, 1)
    dens = smooth_marginal(bin_samples(x))
    assert np.max(np.abs(dens.density - marginal_density(0.0, dens.x))) < 0.01


@pytest.mark.parametrize("grid_points", [2401, 1201, 2001])
def test_smooth_output_exactly_even_and_normalized(grid_points):
    # deliberately one-sided input still yields an exactly even density, on
    # a grid that is an exact mirror with one node per distinct |X|; the
    # pipeline's bins, two grid steps each
    x = np.abs(_draws(0.7, 5_000, 4))
    dens = smooth_marginal(bin_samples(x, n_bins=(grid_points - 1) // 2), grid_points=grid_points)
    assert np.array_equal(dens.x, -dens.x[::-1])
    assert np.unique(np.abs(dens.x)).size == grid_points // 2 + 1
    assert np.array_equal(dens.density, dens.density[::-1])
    assert np.trapezoid(dens.density, dens.x) == pytest.approx(1.0, abs=1e-9)


def test_explicit_bandwidth_honored_single_sample():
    hist = bin_samples(np.array([0.0]), n_bins=1200, lo=-6.0, hi=6.0)
    dens = smooth_marginal(hist, bandwidth=0.5)
    assert dens.bandwidth == 0.5
    peak = 1.0 / (0.5 * np.sqrt(2.0 * np.pi))
    assert np.interp(0.0, dens.x, dens.density) == pytest.approx(peak, abs=1e-3)


def test_rule_based_bandwidth_needs_samples():
    hist = bin_samples(_draws(0.0, 999, 5))
    with pytest.raises(ValidationError, match="bandwidth"):
        smooth_marginal(hist)
    smooth_marginal(hist, bandwidth=0.1)  # explicit bandwidth lifts the floor


def test_smooth_validation():
    hist = bin_samples(_draws(0.0, 2000, 6))
    with pytest.raises(ValidationError):
        smooth_marginal(hist, grid_points=2400)  # even
    with pytest.raises(ValidationError):
        smooth_marginal(hist, grid_points=99)
    with pytest.raises(ValidationError):
        smooth_marginal(hist, bandwidth=-0.1)
    with pytest.raises(ValidationError):
        smooth_marginal(hist, bandwidth_scale=0.0)
    with pytest.raises(ValidationError):
        smooth_marginal(hist, grid_max=-1.0)
    ds = generate_run(RunSpec(eta_true=0.553, n_vacuum=2000, n_fock=1000, seed=6))
    for points in (2401.0, np.float64(2401)):  # integral, but not integers
        with pytest.raises(ValidationError, match="grid_points must be an integer"):
            smooth_marginal(hist, grid_points=points)
        with pytest.raises(ValidationError, match="grid_points must be an integer"):
            reconstruct_dataset(ds, ReconstructionConfig(grid_points=points))


def test_bandwidth_below_the_bin_width_or_grid_spacing_is_rejected():
    x = _draws(0.553, 12_000, 21)
    hist = bin_samples(x)  # bins 0.01 wide on the 0.005 grid
    width = hist.bin_width
    with pytest.raises(ValidationError, match="grid spacing 0.005 and the bin width 0.01"):
        smooth_marginal(hist, bandwidth=np.nextafter(width, 0.0))
    assert smooth_marginal(hist, bandwidth=width).bandwidth == width
    # bins finer than the grid are off the lattice, whatever the bandwidth
    with pytest.raises(ValidationError, match="lattice of whole grid steps 0.005"):
        smooth_marginal(bin_samples(x, n_bins=4000), bandwidth=0.004)


def test_samples_off_the_smoothing_grid_are_named_as_such():
    # Bins whose centres leave the grid are rejected before any kernel sum;
    # a bin centre on the grid lies within half a step of a knot, where its
    # kernel term is at least exp(-1/8) for a bandwidth of a step or more.
    for values, lo, hi, bandwidth in [
        (28.0 + np.linspace(0.0, 1.0, 2000), 20.0, 30.0, 0.5),
        # 38.35 bandwidths from the grid's end
        (np.full(2000, 9.83), 0.0, 12.0, 0.1),
    ]:
        hist = bin_samples(values, n_bins=1200, lo=lo, hi=hi)
        with pytest.raises(ValidationError, match=r"every bin centre on the smoothing grid "
                           r"\[-6, 6\]"):
            smooth_marginal(hist, bandwidth=bandwidth)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_positive_settings_must_be_finite(bad):
    for name in ("grid_max", "bandwidth_scale"):
        with pytest.raises(ValidationError, match=name):
            ReconstructionConfig(**{name: bad})
    hist = bin_samples(_draws(0.0, 2000, 6))
    for name in ("grid_max", "bandwidth_scale", "bandwidth"):
        with pytest.raises(ValidationError, match=name):
            smooth_marginal(hist, **{name: bad})


def _dense_smooth_marginal(hist, bandwidth, grid_max=6.0, grid_points=2401):
    # Reference: the grid x occupied-bins kernel matrix on the whole grid, an
    # exact mirror, then symmetrize and normalize, as smooth_marginal did
    # before the half-line sums.
    half = np.linspace(0.0, grid_max, grid_points // 2 + 1)
    grid = np.concatenate((-half[:0:-1], half))
    mask = hist.counts > 0
    z = (grid[:, None] - hist.centers[mask][None, :]) / bandwidth
    f = np.exp(-0.5 * z * z) @ hist.counts[mask] / (
        hist.n_in_range * bandwidth * np.sqrt(2.0 * np.pi))
    f = 0.5 * (f + f[::-1])
    return f / np.trapezoid(f, grid)


_OFF_LATTICE = "must lie on a lattice of whole grid steps"


@pytest.mark.parametrize("bins,grid_points,lattice", [
    (dict(n_bins=1200), 2401, True),                 # the default: m = 2
    (dict(n_bins=1200), 1201, True),                 # m = 1
    (dict(n_bins=800), 2401, True),                  # m = 3
    (dict(n_bins=600, lo=-3.0, hi=3.0), 2401, True),  # bins narrower than the grid
    (dict(n_bins=1200), 2001, False),                # width not a whole number of steps
    (dict(n_bins=4000), 2401, False),                # bins finer than the grid
    (dict(n_bins=1200, lo=-12.0, hi=12.0), 2401, False),  # bins span more than the grid
    (dict(n_bins=900, lo=-3.0, hi=6.0), 2401, False),  # m = 2, lattice not symmetric about 0
    (dict(n_bins=301, lo=-3.01, hi=3.01), 2401, True),  # m = 4, a bin centred on 0
    (dict(n_bins=300), 601, True),                   # (grid_points - 1) / 2 bins, m = 2
    (dict(n_bins=600), 1201, True),
    (dict(n_bins=1000), 2001, True),
    (dict(n_bins=2400), 4801, True),
])
def test_smoothing_matches_dense_kernel_sum(bins, grid_points, lattice):
    draws = _draws(0.553, 12_000, 21)
    hist = bin_samples(draws, **bins)
    if not lattice:
        # Bins off the lattice are rejected, in the bootstrap too; the same
        # samples on the grid's own bins, two steps each, are summed instead.
        with pytest.raises(ValidationError, match=_OFF_LATTICE):
            smooth_marginal(hist, grid_points=grid_points)
        with pytest.raises(ValidationError, match=_OFF_LATTICE):
            bootstrap_profile(draws, n_boot=2, grid_points=grid_points, **bins)
        hist = bin_samples(draws, n_bins=(grid_points - 1) // 2)
    bandwidth = max(0.03, hist.bin_width)
    cases = [(hist, None), (hist, bandwidth)]
    # The sum runs over the occupied bins only: one occupied bin at the
    # first, the middle and the last bin, and both end bins with a gap.
    n = hist.counts.size
    for occupied in ([0], [n // 2], [n - 1], [0, n - 1]):
        counts = np.zeros_like(hist.counts)
        counts[occupied] = 1000
        cases.append((replace(hist, counts=counts), bandwidth))
    for case, h in cases:
        dens = smooth_marginal(case, bandwidth=h, grid_points=grid_points)
        reference = _dense_smooth_marginal(case, dens.bandwidth, grid_points=grid_points)
        assert np.all(dens.density >= 0.0)
        # the half-line sum is mirrored exactly, with no averaging afterwards
        assert np.array_equal(dens.x, -dens.x[::-1])
        assert np.array_equal(dens.density, dens.density[::-1])
        assert np.max(np.abs(dens.density - reference)) <= 1e-13 * np.max(reference)


@pytest.mark.parametrize("edges", [
    np.concatenate([[-6.0, -1.0, 0.0], np.linspace(0.5, 6.0, 12)]),  # grossly uneven
    np.linspace(-6.0, 6.0, 1201) + np.where(np.arange(1201) == 600, 3e-3, 0.0),  # one edge moved
])
def test_smoothing_rejects_non_uniform_edges(edges):
    rng = np.random.Generator(np.random.PCG64(22))
    hist = MarginalHistogram(bin_edges=edges, counts=rng.integers(0, 50, edges.size - 1),
                             n_total=0, underflow=0, overflow=0)
    with pytest.raises(ValidationError, match=_OFF_LATTICE):
        smooth_marginal(hist, bandwidth=max(0.2, hist.bin_width))


@pytest.mark.parametrize("grid_points,tol", [(1201, 3e-6), (2401, 1e-6), (4801, 1e-6)])
@pytest.mark.parametrize("eta", [0.0, 0.553, 1.0])
def test_chain_matches_the_smoothed_closed_form(grid_points, tol, eta):
    # Bin counts proportional to the exact bin probabilities, smoothed and
    # inverted: the kernel (variance h^2) and the bin (w^2 / 12) blur the
    # quadratures, and a Gaussian blur of variance v maps W_eta to
    # W_{eta/s}(R / sqrt(s)) / s with s = 1 + 4 v.
    edges = np.linspace(-6.0, 6.0, (grid_points - 1) // 2 + 1)
    counts = np.rint(1e12 * np.diff(marginal_cdf(eta, edges))).astype(np.int64)
    hist = MarginalHistogram(bin_edges=edges, counts=counts, n_total=int(counts.sum()),
                             underflow=0, overflow=0)
    for h in (0.0998, 0.2):
        profile = abel_inverse(smooth_marginal(hist, bandwidth=h, grid_points=grid_points))
        s = 1.0 + 4.0 * (h * h + hist.bin_width ** 2 / 12.0)
        inside = profile.radii <= 3.0
        exact = wigner_radial(eta / s, profile.radii[inside] / np.sqrt(s)) / s
        assert np.max(np.abs(profile.values[inside] - exact)) <= tol


# ---------------------------------------------------------------------------
# Abel inversion


@pytest.mark.parametrize("eta", [0.0, 0.5, 0.553, 1.0])
def test_abel_analytic_roundtrip(eta):
    x = np.linspace(0.0, 6.0, 2001)
    profile = abel_inverse(x, marginal_density(eta, x))
    exact = wigner_radial(eta, profile.radii)
    mask = profile.radii <= 3.0
    assert np.max(np.abs(profile.values - exact)[mask]) < 1e-5


def test_abel_two_sided_input_folds():
    x2 = np.linspace(-6.0, 6.0, 2401)
    pr = marginal_density(0.553, x2)
    two_sided = abel_inverse(x2, pr)
    one_sided = abel_inverse(np.linspace(0.0, 6.0, 1201),
                             marginal_density(0.553, np.linspace(0.0, 6.0, 1201)))
    assert np.allclose(two_sided.values, one_sided.values, atol=1e-12)


def test_abel_accepts_grid_density():
    x = _draws(0.553, 20_000, 7)
    dens = smooth_marginal(bin_samples(x))
    from_density = abel_inverse(dens)
    from_arrays = abel_inverse(dens.x, dens.density)
    assert np.array_equal(from_density.values, from_arrays.values)


def test_abel_normalization_invariant():
    x = np.linspace(0.0, 6.0, 2001)
    profile = abel_inverse(x, marginal_density(0.553, x))
    assert profile.normalization() == pytest.approx(1.0, abs=1e-5)


def test_forward_inverse_consistency_analytic():
    x = np.linspace(0.0, 6.0, 2001)
    profile = abel_inverse(x, marginal_density(0.553, x))
    xq = np.linspace(0.0, 3.0, 301)
    back = wigner_to_marginal(profile, xq)
    assert np.max(np.abs(back - marginal_density(0.553, xq))) < 1e-6


def test_forward_inverse_consistency_smoothed_data():
    x = _draws(0.553, 30_000, 8)
    dens = smooth_marginal(bin_samples(x))
    profile = abel_inverse(dens)
    xq = np.linspace(0.0, 3.0, 301)
    back = wigner_to_marginal(profile, xq)
    assert np.max(np.abs(back - np.interp(xq, dens.x, dens.density))) < 2e-3


def test_abel_grid_too_coarse():
    x = np.linspace(0.0, 6.0, 201)  # spacing 0.03 > ABEL_MAX_SPACING
    with pytest.raises(ValidationError, match="coarse"):
        abel_inverse(x, marginal_density(0.5, x))
    assert ABEL_MAX_SPACING == 0.02


@pytest.mark.parametrize("x_max,points", [(6.0, 601), (12.0, 1201)])
def test_abel_grid_at_the_spacing_bound_is_accepted(x_max, points):
    # both grids step 0.02, though xs[1] - xs[0] rounds above it on the first
    for x in (np.linspace(-x_max, x_max, points), np.linspace(0.0, x_max, points // 2 + 1)):
        assert np.all(np.isfinite(abel_inverse(x, marginal_density(0.5, x)).values))


def test_abel_grid_just_above_the_spacing_bound_is_rejected():
    x = np.linspace(-6.03, 6.03, 601)  # spacing 0.0201
    with pytest.raises(ValidationError, match="spacing 0.0201 too coarse"):
        abel_inverse(x, marginal_density(0.5, x))


def test_abel_range_too_short():
    x = np.linspace(0.0, 3.5, 1001)
    with pytest.raises(ValidationError, match="range"):
        abel_inverse(x, marginal_density(0.5, x))
    assert ABEL_MIN_RANGE == 4.0


def test_abel_validation():
    x = np.linspace(0.0, 6.0, 2001)
    pr = marginal_density(0.5, x)
    with pytest.raises(ValidationError):
        abel_inverse(x, pr, r_max=7.0)  # beyond the grid
    with pytest.raises(ValidationError):
        abel_inverse(x, pr[:-1])
    with pytest.raises(ValidationError):
        abel_inverse(x ** 1.1, pr)  # non-uniform
    with pytest.raises(ValidationError):
        abel_inverse(np.linspace(-5.0, 6.0, 2001),
                     marginal_density(0.5, np.linspace(-5.0, 6.0, 2001)))
    with pytest.raises(ValidationError):
        abel_inverse(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValidationError):
        abel_inverse(x, pr, n_radii=1)


def test_abel_rejects_non_finite_input():
    x = np.linspace(0.0, 6.0, 2001)
    pr = marginal_density(0.5, x)
    for bad in (np.nan, np.inf):
        f = pr.copy()
        f[100] = bad
        with pytest.raises(ValidationError, match="finite"):
            abel_inverse(x, f)
        g = x.copy()
        g[-1] = bad
        with pytest.raises(ValidationError, match="finite"):
            abel_inverse(g, pr)


def test_forward_rejects_non_finite_x():
    x = np.linspace(0.0, 6.0, 2001)
    profile = abel_inverse(x, marginal_density(0.5, x))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            wigner_to_marginal(profile, [0.0, bad])
        with pytest.raises(ValidationError, match="finite"):
            wigner_to_marginal(profile, bad)


@pytest.mark.parametrize("radii,values", [
    ([0.0], [0.3]),                                # fewer than two radii
    ([0.0, 0.5, 0.5, 1.0], [0.3, 0.2, 0.1, 0.0]),  # a repeated radius
    ([0.0, 1.0, 0.5], [0.3, 0.0, 0.1]),            # radii out of order
    ([0.0, 0.5, 1.0], [0.3, 0.1]),                 # one value short
    (np.linspace(0.5, 4.0, 351), np.full(351, 0.1)),  # uniform, but not from 0
    ([0.0, 0.5, 1.5, 2.0], [0.3, 0.2, 0.1, 0.0]),  # from 0, but not uniform
])
def test_forward_rejects_malformed_profile(radii, values):
    profile = RadialWignerProfile(radii=np.array(radii), values=np.array(values))
    with pytest.raises(ValidationError, match="radii"):
        wigner_to_marginal(profile, [0.0, 0.2])


# ---------------------------------------------------------------------------
# Chord quadrature against the per-point reference loops


def _loop_simpson(g, h):
    return (h / 3.0) * (g[0] + g[-1] + 4.0 * np.sum(g[1:-1:2]) + 2.0 * np.sum(g[2:-2:2]))


def _loop_abel_inverse(xs, fs, r_max, n_radii=401):
    # Reference: one np.linspace and one Simpson sum per radius, on a
    # one-sided grid xs starting at 0.
    spl = CubicSpline(xs, fs, bc_type=((1, 0.0), "not-a-knot"))
    d1, d2 = spl.derivative(1), spl.derivative(2)
    x_max = float(xs[-1])
    radii = np.linspace(0.0, r_max, n_radii)
    values = np.zeros_like(radii)
    for i, r in enumerate(radii):
        u_max_sq = x_max * x_max - r * r
        if u_max_sq <= 0.0:
            continue
        u = np.linspace(0.0, np.sqrt(u_max_sq), _SIMPSON_NODES)
        xq = np.sqrt(r * r + u * u)
        if r > 1e-12:
            g = d1(xq) / xq
        else:
            g = np.empty_like(u)
            g[1:] = d1(xq[1:]) / xq[1:]
            g[0] = d2(0.0)
        values[i] = -_loop_simpson(g, u[1] - u[0]) / np.pi
    return values


def _loop_wigner_to_marginal(profile, xq):
    # Reference: one np.linspace and one Simpson sum per point.
    r_max = float(profile.radii[-1])
    spl = CubicSpline(profile.radii, profile.values, bc_type=((1, 0.0), "not-a-knot"))
    out = np.zeros_like(xq)
    for i, xi in enumerate(xq):
        v_max_sq = r_max * r_max - xi * xi
        if v_max_sq <= 0.0:
            continue
        v = np.linspace(0.0, np.sqrt(v_max_sq), _SIMPSON_NODES)
        out[i] = 2.0 * _loop_simpson(spl(np.sqrt(xi * xi + v * v)), v[1] - v[0])
    return out


def _forward_points(r_max):
    # Negative, zero, interior, on the edge and beyond the largest radius.
    return np.concatenate([np.linspace(-1.5 * r_max, 1.5 * r_max, 601),
                           [0.0, -r_max, r_max, np.nextafter(r_max, 0.0)]])


@pytest.mark.parametrize("eta", [0.0, 0.553, 1.0])
@pytest.mark.parametrize("r_max", [4.0, 6.0])  # 6.0 == x_max: last chord is empty
def test_chord_quadrature_matches_loop_analytic(eta, r_max):
    x = np.linspace(0.0, 6.0, 2001)
    pr = marginal_density(eta, x)
    profile = abel_inverse(x, pr, r_max=r_max)
    reference = _loop_abel_inverse(x, pr, r_max)
    assert np.max(np.abs(profile.values - reference)) <= 1e-13
    assert abs(profile.values[0] - reference[0]) <= 1e-13  # R = 0 row
    if r_max == 6.0:
        assert profile.values[-1] == 0.0
    xq = _forward_points(r_max)
    back = wigner_to_marginal(profile, xq)
    assert np.max(np.abs(back - _loop_wigner_to_marginal(profile, xq))) <= 1e-13
    assert np.all(back[np.abs(xq) >= r_max] == 0.0)


def test_chord_quadrature_matches_loop_smoothed_data():
    dens = smooth_marginal(bin_samples(_draws(0.553, 20_000, 7)))
    k = (dens.x.size - 1) // 2
    xs, fs = dens.x[k:], 0.5 * (dens.density[k:] + dens.density[k::-1])
    profile = abel_inverse(dens)
    assert np.max(np.abs(profile.values - _loop_abel_inverse(xs, fs, 4.0))) <= 1e-13
    xq = _forward_points(4.0)
    back = wigner_to_marginal(profile, xq)
    assert np.max(np.abs(back - _loop_wigner_to_marginal(profile, xq))) <= 1e-13


@pytest.fixture(scope="module")
def smoothed_profile():
    return abel_inverse(smooth_marginal(bin_samples(_draws(0.553, 20_000, 7))))


def test_forward_projection_is_even_bit_for_bit(smoothed_profile):
    xq = np.concatenate([_forward_points(4.0), np.linspace(-6.0, 6.0, 2401)])
    assert np.array_equal(wigner_to_marginal(smoothed_profile, xq),
                          wigner_to_marginal(smoothed_profile, -xq))


def test_forward_projection_unsorted_with_duplicates(smoothed_profile):
    rng = np.random.Generator(np.random.PCG64(23))
    distinct = rng.uniform(-6.0, 6.0, 2401 + 3)  # a third of them beyond r_max = 4
    xq = rng.permutation(np.concatenate([distinct, distinct[:50], -distinct[50:100]]))
    assert np.unique(np.abs(xq)).size % _CHORD_BLOCK != 0  # a part-filled last block
    back = wigner_to_marginal(smoothed_profile, xq)
    assert np.max(np.abs(back - _loop_wigner_to_marginal(smoothed_profile, xq))) <= 1e-13
    assert np.all(back[np.abs(xq) >= 4.0] == 0.0)


def test_forward_projection_keeps_the_input_shape(smoothed_profile):
    xq = np.linspace(-5.0, 5.0, 12)
    flat = wigner_to_marginal(smoothed_profile, xq)
    assert flat.shape == (12,)
    square = wigner_to_marginal(smoothed_profile, xq.reshape(3, 4))
    assert square.shape == (3, 4) and np.array_equal(square.ravel(), flat)
    for scalar in (xq[3], float(xq[3]), np.array(xq[3])):
        value = wigner_to_marginal(smoothed_profile, scalar)
        assert type(value) is float and value == flat[3]
    assert wigner_to_marginal(smoothed_profile, []).shape == (0,)


def test_chord_quadrature_scalar_and_deterministic():
    dens = smooth_marginal(bin_samples(_draws(0.553, 20_000, 7)))
    profile = abel_inverse(dens)
    assert np.array_equal(profile.values, abel_inverse(dens).values)
    xq = _forward_points(4.0)
    assert np.array_equal(wigner_to_marginal(profile, xq), wigner_to_marginal(profile, xq))
    for xi in (0.3, -0.3, 4.0, 5.0):
        value = wigner_to_marginal(profile, xi)
        assert type(value) is float
        assert value == wigner_to_marginal(profile, np.array([xi]))[0]


def _chain(values, bandwidth=None):
    # Reference: the explicit bin -> check -> smooth -> invert steps on the
    # default grid, in reconstruct_dataset's order.
    hist = bin_samples(values)
    _check_inversion_grid(6.0, 2401)
    dens = smooth_marginal(hist, bandwidth=bandwidth)
    return hist, dens, abel_inverse(dens)


def test_reconstruct_dataset_matches_manual_chain():
    ds = generate_run(RunSpec(eta_true=0.6, n_vacuum=20_000, n_fock=15_000, seed=9))
    summary = reconstruct_dataset(ds)
    hist, dens, profile = _chain(rescale(ds.fock_values, summary.calibration))
    assert np.array_equal(summary.histogram.counts, hist.counts)
    assert np.array_equal(summary.density.density, dens.density)
    assert np.array_equal(summary.profile.values, profile.values)


def _bits(value):
    # A value as nested tuples: arrays by dtype, shape and bytes, numbers by
    # repr, so equal results are equal bit for bit.
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _fresh(ds, config=None):
    # reconstruct_dataset's result, computed without its memo.
    return prepare_run(ds, config).reconstruct(config)


def _memo_run(n_fock=4_000):
    return generate_run(RunSpec(eta_true=0.553, n_vacuum=20_000, n_fock=n_fock, seed=17))


_SWEEP = [ReconstructionConfig(bandwidth_scale=s) for s in (0.5, 0.75, 1.0, 1.5, 2.0)]
_CROSS_CHECK = ReconstructionConfig(fit_method="hist", calibration_method="histogram")


@pytest.fixture
def prefix_calls(monkeypatch):
    """Names of the bandwidth-independent stages that reconstruct_dataset
    runs, in order, from an empty memo on."""
    calls = []

    def counted(name, stage):
        def run(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)
        return run

    for name in ("fit_vacuum", "fit_efficiency", "sample_diagonals"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    monkeypatch.setattr(pipeline, "_last_run", None)
    return calls


PREFIX = ["fit_vacuum", "fit_efficiency", "sample_diagonals"]


@pytest.mark.parametrize("n_fock", [4_000, 0])
def test_bandwidth_sweep_reuses_the_prefix_bit_for_bit(prefix_calls, n_fock):
    ds = _memo_run(n_fock)
    configs = [ReconstructionConfig(bandwidth_scale=s) for s in (0.5, 1.0, 2.0)]
    configs.append(_CROSS_CHECK)
    want = [_bits(_fresh(ds, config)) for config in configs]
    prefix_calls.clear()
    got = [_bits(reconstruct_dataset(ds, config)) for config in configs]
    assert got == want
    # once for the sweep, once for the cross-check's other methods
    assert prefix_calls == PREFIX * 2


def _move_vacuum(ds):
    ds.raw_value[0] = np.nextafter(ds.raw_value[0], np.inf)


def _move_signal(ds):
    ds.raw_value[-1] = np.nextafter(ds.raw_value[-1], -np.inf)


def _split_later(ds):
    ds.spec = replace(ds.spec, n_vacuum=ds.spec.n_vacuum + 1, n_fock=ds.spec.n_fock - 1)


@pytest.mark.parametrize("edit", [_move_vacuum, _move_signal, _split_later])
def test_an_edit_in_place_is_seen(prefix_calls, edit):
    ds = _memo_run()
    reconstruct_dataset(ds)
    edit(ds)
    got = reconstruct_dataset(ds)
    assert prefix_calls == PREFIX * 2
    assert _bits(got) == _bits(_fresh(ds))


@pytest.mark.parametrize("change", [{"calibration_method": "histogram"},
                                    {"fit_method": "hist"}, {"n_max": 2}])
def test_each_prefix_setting_is_part_of_the_key(prefix_calls, change):
    ds = _memo_run()
    reconstruct_dataset(ds)
    reconstruct_dataset(ds, ReconstructionConfig(bandwidth_scale=2.0))
    assert prefix_calls == PREFIX
    got = reconstruct_dataset(ds, ReconstructionConfig(**change))
    assert prefix_calls == PREFIX * 2
    assert _bits(got) == _bits(_fresh(ds, ReconstructionConfig(**change)))


def test_a_setting_equal_in_value_but_not_in_type_is_checked_again(prefix_calls):
    # True == 1, but sample_diagonals rejects a bool n_max.
    ds = _memo_run()
    reconstruct_dataset(ds, ReconstructionConfig(n_max=1))
    with pytest.raises(ValidationError, match="n_max"):
        reconstruct_dataset(ds, ReconstructionConfig(n_max=True))


def test_the_memo_shares_nothing_with_the_caller(prefix_calls):
    ds = _memo_run()
    first = reconstruct_dataset(ds)
    kept = _bits(first)
    first.diagonals.append(first.diagonals[0])
    first.diagonals[0] = None
    assert _bits(reconstruct_dataset(ds)) == kept
    for block in pipeline._last_run[:2]:
        assert block.dtype == np.float64
        assert not np.shares_memory(block, ds.raw_value)


def test_a_miss_frees_the_previous_copies_before_it_smooths(prefix_calls, monkeypatch):
    # Else the old and new copies would both add to the peak memory.
    ds = _memo_run()
    reconstruct_dataset(ds)
    previous = [weakref.ref(block) for block in pipeline._last_run[:2]]
    alive = []

    def smooth(*args, **kwargs):
        alive.append(any(ref() is not None for ref in previous))
        return smooth_marginal(*args, **kwargs)

    monkeypatch.setattr(pipeline, "smooth_marginal", smooth)
    _move_signal(ds)
    reconstruct_dataset(ds)
    assert alive == [False]


def test_a_failed_call_leaves_the_next_one_correct(prefix_calls):
    ds = _memo_run()
    spike = ReconstructionConfig(bandwidth=0.001)  # below the 0.005 grid step
    with pytest.raises(ValidationError, match="bandwidth"):
        reconstruct_dataset(ds, spike)
    assert pipeline._last_run is None
    _move_signal(ds)
    want = _bits(reconstruct_dataset(ds))
    computed = len(prefix_calls)
    with pytest.raises(ValidationError, match="bandwidth"):
        reconstruct_dataset(ds, spike)  # a hit that fails after the prefix
    assert _bits(reconstruct_dataset(ds)) == want
    assert len(prefix_calls) == computed
    assert _bits(_fresh(ds)) == want


@pytest.mark.parametrize("n_fock", [4_000, 0])
def test_a_prepared_run_reconstructs_what_reconstruct_dataset_does(n_fock):
    ds = _memo_run(n_fock)
    run = prepare_run(ds)
    for config in _SWEEP:
        assert _bits(run.reconstruct(config)) == _bits(reconstruct_dataset(ds, config))
    cross = prepare_run(ds, _CROSS_CHECK)
    assert _bits(cross.reconstruct()) == _bits(reconstruct_dataset(ds, _CROSS_CHECK))
    signal = ds.fock_values if n_fock else ds.vacuum_values
    assert run.analysis_source == ("fock_block" if n_fock else "vacuum_control")
    assert run.n_signal == signal.size
    assert np.array_equal(run.x, rescale(signal, run.calibration))


@pytest.mark.parametrize("prepared, asked", [
    ({}, {"calibration_method": "histogram"}),
    ({}, {"fit_method": "hist"}),
    ({}, {"n_max": 2}),
    ({"n_max": 1}, {"n_max": True}),  # True == 1, but sample_diagonals rejects a bool
])
def test_a_prepared_run_rejects_other_prefix_settings(prepared, asked):
    run = prepare_run(_memo_run(), ReconstructionConfig(**prepared))
    with pytest.raises(ValidationError, match="must equal the prepared run's"):
        run.reconstruct(ReconstructionConfig(**asked))
    other = run.reconstruct(ReconstructionConfig(bandwidth_scale=2.0, **prepared))
    assert other.efficiency is run.efficiency


def test_a_prepared_run_keeps_x_read_only_and_shares_no_list():
    ds = _memo_run()
    run = prepare_run(ds)
    assert run.x.dtype == np.float64 and not run.x.flags.writeable
    assert not np.shares_memory(run.x, ds.raw_value)
    with pytest.raises(ValueError, match="read-only"):
        run.x[0] = 0.0
    first, second = run.reconstruct(), run.reconstruct()
    assert type(first.diagonals) is list and first.diagonals is not second.diagonals
    first.diagonals[1] = None
    assert second.diagonals == sample_diagonals(run.x) == list(run.diagonals)


@pytest.mark.parametrize("n_max", [0, -1, MAX_ORDER + 1, 1.0])
def test_prepare_run_rejects_n_max_outside_one_to_max_order_before_calibrating(
        prefix_calls, monkeypatch, n_max):
    # The run's W(0) reads rho_11, so with n_max = 0 the report would fail
    # only after the whole analysis; sample_diagonals alone accepts it.
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrated before checking n_max")

    monkeypatch.setattr(pipeline, "fit_vacuum", calibrate)
    ds = _memo_run()
    message = rf"n_max must be an integer in 1\.\.{MAX_ORDER}"
    for analyse in (prepare_run, reconstruct_dataset):
        with pytest.raises(ValidationError, match=message):
            analyse(ds, ReconstructionConfig(n_max=n_max))
    assert len(sample_diagonals(ds.fock_values, n_max=0)) == 1


def test_bootstrap_profile_stderr():
    x = _draws(0.7, 4_000, 10)
    prof = bootstrap_profile(x, n_boot=6, seed=3, bandwidth=0.15)
    assert prof.stderr is not None
    assert prof.stderr.shape == prof.values.shape
    assert np.all(np.isfinite(prof.stderr))
    assert np.all(prof.stderr >= 0.0)
    again = bootstrap_profile(x, n_boot=6, seed=3, bandwidth=0.15)
    assert np.array_equal(prof.stderr, again.stderr)
    with pytest.raises(ValidationError):
        bootstrap_profile(x, n_boot=1)
    for bad in ({"n_boot": 2.5}, {"n_boot": "3"}, {"n_boot": True}, {"n_boot": np.float64(3.0)},
                {"seed": -1}, {"seed": 1.5}, {"seed": "0"}, {"seed": False}):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            bootstrap_profile(x, **{"bandwidth": 0.15, **bad})
    numpy_ints = bootstrap_profile(x, n_boot=np.int64(6), seed=np.int32(3), bandwidth=0.15)
    assert np.array_equal(numpy_ints.stderr, prof.stderr)


def _loop_bootstrap_stderr(values, n_boot, seed, **kwargs):
    # Reference: the whole explicit chain on every resampled array.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    stack = [_chain(values[rng.integers(0, values.size, size=values.size)],
                    **kwargs)[2].values for _ in range(n_boot)]
    return np.std(stack, axis=0, ddof=1)


@pytest.mark.parametrize("grid_points", [2401, 2001])  # each with its own bins, two steps each
@pytest.mark.parametrize("bandwidth", [None, 0.15])
def test_bootstrap_stderr_is_the_replicate_loop_bit_for_bit(grid_points, bandwidth):
    # Each replicate smoothed on its own by smooth_marginal, from the same
    # draws: one smoother prepared for every replicate changes no bit.
    x = _draws(0.553, 4_000, 24)
    n_boot, seed, k = 6, 5, grid_points // 2
    prof = bootstrap_profile(x, n_boot=n_boot, seed=seed, bandwidth=bandwidth, n_bins=k,
                             grid_points=grid_points)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    diffs = np.array([np.diff(smooth_marginal(bin_samples(x[rng.integers(0, x.size, size=x.size)],
                                                          n_bins=k),
                                              bandwidth=bandwidth,
                                              grid_points=grid_points).density[k:])
                      for _ in range(n_boot)])
    matrix = _abel_operator(6.0, k + 1, 4.0, 401)
    assert np.array_equal(prof.stderr, np.std(diffs @ matrix.T, axis=0, ddof=1))


@pytest.mark.parametrize("bandwidth", [None, 0.15])
def test_bootstrap_profile_matches_replicate_loop(bandwidth):
    x = _draws(0.553, 12_000, 23)
    prof = bootstrap_profile(x, n_boot=8, seed=4, bandwidth=bandwidth)
    assert np.array_equal(prof.values, _chain(x, bandwidth=bandwidth)[2].values)
    reference = _loop_bootstrap_stderr(x, 8, 4, bandwidth=bandwidth)
    assert np.max(np.abs(prof.stderr - reference)) <= 1e-12


def test_abel_operator_cache_is_keyed_on_the_grid_and_read_only():
    # Two grids in turn: each call returns what the first call on its grid did.
    grids = [(np.linspace(-6.0, 6.0, 2401), {}),
             (np.linspace(-6.0, 6.0, 2001), {"r_max": 3.0})]
    hits = _abel_operator.cache_info().hits
    first = {}
    for _ in range(3):
        for k, (x, kwargs) in enumerate(grids):
            values = abel_inverse(x, marginal_density(0.553, x), **kwargs).values
            if k in first:
                assert np.array_equal(values, first[k])
            else:
                first[k] = values
    assert _abel_operator.cache_info().hits >= hits + 4

    # The key is four numbers: reach, knot count, r_max and n_radii.
    matrix = _abel_operator(6.0, 1201, 4.0, 401)
    assert matrix.shape == (401, 1200)
    assert _abel_operator(6.0, 1201, 4.0, 401) is matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0

    # A symmetric grid folds onto the one-sided grid with the same reach and
    # step, so the two share one M: the second call is a cache hit.
    _abel_operator.cache_clear()
    two_sided, one_sided = np.linspace(-6.0, 6.0, 2401), np.linspace(0.0, 6.0, 1201)
    abel_inverse(two_sided, marginal_density(0.553, two_sided))
    before = _abel_operator.cache_info()
    abel_inverse(one_sided, marginal_density(0.553, one_sided))
    after = _abel_operator.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, 1)

    # A caller's later writes to its arrays reach neither the cache nor a result
    # (a one-sided grid is used as given, without a copy).
    x = np.linspace(0.0, 6.0, 1201)
    f = marginal_density(0.553, x)
    result = abel_inverse(x, f)
    kept = result.values.copy()
    x *= 1.01
    f[:] = 0.0
    assert np.array_equal(result.values, kept)
    fresh = np.linspace(0.0, 6.0, 1201)
    assert np.array_equal(abel_inverse(fresh, marginal_density(0.553, fresh)).values, kept)
    assert np.array_equal(abel_inverse(x, marginal_density(0.553, x)).values,
                          abel_inverse(fresh * 1.01, marginal_density(0.553, fresh * 1.01)).values)


def _one_shot_abel_operator(reach, n_knots, r_max, n_radii):
    # Reference: M built from every chord node at once, with G and the node
    # weights on d as two full (knots x radii) arrays side by side.
    step = reach / (n_knots - 1)
    r = np.linspace(0.0, r_max, n_radii)
    inside, h, nodes, cell, u = _abel_nodes(reach, n_knots, r)
    q = (h / (3.0 * np.pi * step))[:, None] * _SIMPSON_WEIGHTS
    q00 = float(q[0, 0])
    np.divide(q, nodes, out=q, where=nodes > 0.0)
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
    w[:, 0, 0] = 0.0, 2.0 * q00 / step, -6.0 * q00 / step
    index = np.empty((2, *cell.shape), dtype=cell.dtype)
    np.multiply(cell, r.size, out=index[0])
    index[0] += np.flatnonzero(inside)[:, None]
    np.add(index[0], r.size, out=index[1])
    g_t = np.bincount(index.ravel(), w[:2].ravel(), minlength=n_knots * n_radii)
    m_t = np.bincount(index[0].ravel(), w[2].ravel(), minlength=(n_knots - 1) * n_radii)
    g_t, m_t = g_t.reshape(n_knots, n_radii), m_t.reshape(n_knots - 1, n_radii)
    y = _thomas(*_knot_system(n_knots)[::-1], g_t[1:])
    m_t[-2] += 0.5 * y[-1]
    m_t[-1] += 2.5 * y[-1]
    y = y[:-1]
    y *= 3.0
    m_t[:-1] += y
    m_t[1:] += y
    return m_t.T


@pytest.mark.parametrize("grid", [
    (6.0, 1201, 4.0, 401),  # the default
    (6.0, 1201, 6.0, 601),  # the last radius has no chord
    (6.0, 601, 3.0, 65),  # a last block of one radius
    (4.0, 201, 4.0, 3),  # one block, part-filled
    (6.0, 1201, 4.0, 2 * _CHORD_BLOCK),  # full blocks only
    (4.0, 401, 4.0, _CHORD_BLOCK + 1),  # a last block without a chord
])
def test_abel_operator_in_blocks_equals_the_one_shot_build(grid):
    matrix = _abel_operator(*grid)
    assert matrix.shape == (grid[3], grid[1] - 1) and not matrix.flags.writeable
    assert np.array_equal(matrix, _one_shot_abel_operator(*grid))


def test_abel_operator_build_holds_one_full_size_array():
    # The one-shot build peaks at 3.7 M.nbytes (G, the weights on d and every
    # node's arrays at once); in blocks of radii it holds one buffer.
    _abel_operator.cache_clear()
    tracemalloc.start()
    try:
        matrix = _abel_operator(6.0, 1201, 4.0, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * matrix.nbytes


@pytest.mark.parametrize("n_radii", [401, 601, 1201])  # every 3rd, 2nd and each knot
def test_division_on_knots_matches_loop(n_radii):
    # Radii and points exactly on the knots j * step, where a node's interval
    # is decided by rounding of node / step, and points at and just beyond r_max.
    x = np.linspace(0.0, 6.0, 1201)
    pr = marginal_density(0.553, x)
    profile = abel_inverse(x, pr, r_max=6.0, n_radii=n_radii)
    assert np.max(np.abs(profile.values - _loop_abel_inverse(x, pr, 6.0, n_radii))) <= 1e-13
    assert profile.values[-1] == 0.0
    step = 6.0 / (n_radii - 1)
    beyond = [6.0, np.nextafter(6.0, 7.0), 6.0 + 1e-9, 6.0 + step]
    xq = np.concatenate([x, -profile.radii, beyond, [np.nextafter(6.0, 0.0)]])
    back = wigner_to_marginal(profile, xq)
    assert np.max(np.abs(back - _loop_wigner_to_marginal(profile, xq))) <= 1e-13
    assert np.all(back[np.abs(xq) >= 6.0] == 0.0)


def _spline_cases():
    rng = np.random.Generator(np.random.PCG64(24))
    for n in (2, 3, 4, 5, 60, 401):
        for step in (1e-3, 0.01, 1.0):
            x = step * np.arange(n)
            yield x, np.exp(-2.0 * x * x) * (1.0 + 4.0 * x * x)
            yield x, np.cos(7.0 * x / x[-1])
            yield x, rng.normal(size=n)


def test_spline_matches_cubicspline():
    for x, y in _spline_cases():
        step = x[1]
        reference = CubicSpline(x, y, bc_type=((1, 0.0), "not-a-knot"))
        # coefficients in steps, rescaled to powers of X - x[i]
        ours = PPoly(_spline_coefficients(y) / step ** np.arange(3.0, -1.0, -1.0)[:, None], x)
        # the knot span and one end interval's width beyond it on either side
        xq = np.linspace(-step, x[-1] + step, 5001)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(ours(xq) - reference(xq))) <= 1e-13 * scale, (x.size, step)
        assert np.max(np.abs(ours(x) - y)) <= 1e-14 * scale
        assert ours.derivative()(0.0) == 0.0


# ---------------------------------------------------------------------------
# Efficiency fit


def test_mle_recovers_truth():
    eta = 0.553
    x = _draws(eta, 200_000, 11)
    fit = fit_efficiency(x)
    assert fit.method == "mle"
    assert not fit.at_boundary
    assert abs(fit.eta_hat - eta) < 4.0 * fit.eta_stderr
    assert fit.n_used == 200_000


def test_mle_stderr_matches_fisher_information():
    eta = 0.553
    n = 12_000
    x = _draws(eta, n, 12)
    fit = fit_efficiency(x)

    def info_integrand(t):
        s = 4.0 * t * t - 1.0
        return marginal_density(eta, t) * (s / (1.0 + eta * s)) ** 2

    info, _ = integrate.quad(info_integrand, -8.0, 8.0, limit=200)
    predicted = 1.0 / np.sqrt(n * info)
    assert predicted == pytest.approx(0.00806, abs=0.0005)
    assert fit.eta_stderr == pytest.approx(predicted, rel=0.10)


def test_mle_vacuum_estimate_consistent_with_zero():
    # on vacuum data the score at eta=0 has zero mean, so the estimate lands
    # either exactly on the boundary or a fraction of a stderr above it
    x = _draws(0.0, 50_000, 13)
    fit = fit_efficiency(x)
    assert fit.eta_hat <= 3.0 * fit.eta_stderr
    assert np.isfinite(fit.eta_stderr)


def test_mle_boundary_flags_are_deterministic():
    # every t = 4x^2 - 1 negative -> eta_hat pinned at 0
    low = fit_efficiency(np.full(2000, 0.4))
    assert low.eta_hat == 0.0
    assert low.at_boundary
    # every t positive -> score stays positive on [0, 1] -> pinned at 1
    high = fit_efficiency(np.full(2000, 1.0))
    assert high.eta_hat == 1.0
    assert high.at_boundary


def test_mle_pure_single_photon_near_upper_boundary():
    x = _draws(1.0, 100_000, 14)
    fit = fit_efficiency(x)
    assert fit.eta_hat > 0.98


def test_hist_agrees_with_mle():
    x = _draws(0.6, 50_000, 15)
    mle = fit_efficiency(x, method="mle")
    hist = fit_efficiency(x, method="hist")
    assert hist.method == "hist"
    assert abs(hist.eta_hat - mle.eta_hat) <= 2.0 * mle.eta_stderr
    assert hist.objective >= 0.0


def test_fit_validation():
    with pytest.raises(ValidationError, match="1000"):
        fit_efficiency(np.zeros(999))
    x = _draws(0.5, 2_000, 16)
    bad = x.copy()
    bad[0] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        fit_efficiency(bad)
    with pytest.raises(ValidationError, match="method"):
        fit_efficiency(x, method="bogus")
    with pytest.raises(ValidationError):
        fit_efficiency(x.reshape(2, -1))


def _brentq_mle(t):
    # Reference: the score's bracketed root, to the last few ulps.
    return optimize.brentq(lambda eta: np.sum(t / (1.0 + eta * t)), 0.0, 1.0,
                           xtol=1e-15, maxiter=500)


@pytest.mark.parametrize("eta,n,seed", [(0.553, 12_000, 31), (0.2, 5_000, 32), (0.9, 20_000, 33),
                                        (1.0, 3_000, 34), (0.02, 50_000, 35), (0.999, 4_000, 36),
                                        (0.97, 30_000, 37)])
def test_mle_newton_matches_brentq(eta, n, seed):
    x = _draws(eta, n, seed)
    t = 4.0 * x * x - 1.0
    fit = fit_efficiency(x)
    if np.sum(t) <= 0.0 or np.sum(t / (1.0 + t)) >= 0.0:  # score without a sign change
        assert fit.at_boundary and fit.eta_hat in (0.0, 1.0)
    else:
        assert not fit.at_boundary
        # Newton ends on the root to rounding; 1e-12 is the fit's tolerance
        assert abs(fit.eta_hat - _brentq_mle(t)) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x0", [0.0, 1e-9])
def test_mle_sample_at_zero_divides_nothing(x0):
    # t = 4 x0^2 - 1 is exactly -1, so 1 + eta t is 0 at eta = 1: the score
    # there is -inf, found without a division by zero.
    x = np.random.Generator(np.random.PCG64(38)).normal(0.0, 0.6, 5000)
    x[0] = x0
    assert _mle_score(1.0, 4.0 * x * x - 1.0) == (-np.inf, None)
    fit = fit_efficiency(x)
    assert 0.0 < fit.eta_hat < 1.0 and not fit.at_boundary


def test_mle_boundaries_follow_the_score_signs():
    # score(0) = sum t <= 0 pins eta_hat at 0, score(1) = sum t / (1 + t) >= 0 at 1
    low = np.concatenate([np.full(1500, 0.1), np.full(500, 0.6)])
    high = np.concatenate([np.full(1500, 1.2), np.full(500, 0.45)])
    for x, edge in ((low, 0.0), (high, 1.0)):
        t = 4.0 * x * x - 1.0
        assert np.sum(t) <= 0.0 if edge == 0.0 else np.sum(t / (1.0 + t)) >= 0.0
        fit = fit_efficiency(x)
        assert fit.eta_hat == edge and fit.at_boundary


def _minimize_hist(x):
    # Reference: the bounded scalar minimization of the histogram SSE.
    from focktomo.reconstruction import _scott_density

    centers, density = _scott_density(x, float(np.mean(x)), float(np.std(x, ddof=1)))
    sol = optimize.minimize_scalar(
        lambda eta: float(np.sum((density - marginal_density(eta, centers)) ** 2)),
        bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-10})
    return sol.x, sol.fun


@pytest.mark.parametrize("eta,n,seed", [(0.553, 12_000, 41), (0.3, 50_000, 42), (0.0, 20_000, 43),
                                        (1.0, 20_000, 44), (0.8, 2_000, 45)])
def test_hist_closed_form_matches_minimize_scalar(eta, n, seed):
    x = _draws(eta, n, seed)
    fit = fit_efficiency(x, method="hist")
    ref_eta, ref_sse = _minimize_hist(x)
    assert fit.objective <= ref_sse * (1.0 + 1e-12)
    if 0.0 < fit.eta_hat < 1.0:
        assert abs(fit.eta_hat - ref_eta) <= 1e-8
    else:
        # a clipped minimum: the bounded search stops short of the bound, by
        # at most twice its tolerance sqrt(eps) |x| + xatol / 3
        tol = np.sqrt(np.finfo(float).eps) * fit.eta_hat + 1e-10 / 3.0
        assert abs(fit.eta_hat - ref_eta) <= 2.0 * tol


def test_hist_fit_clips_to_unit_interval():
    # a sample narrower than vacuum pulls the unclipped minimizer below 0; a
    # one-photon sample (seed 44) lands above 1
    rng = np.random.Generator(np.random.PCG64(46))
    narrow = fit_efficiency(0.3 * rng.standard_normal(20_000), method="hist")
    photon = fit_efficiency(_draws(1.0, 20_000, 44), method="hist")
    assert narrow.eta_hat == 0.0 and narrow.at_boundary
    assert photon.eta_hat == 1.0 and photon.at_boundary


def test_hist_fit_degenerate_model_is_numerics_error():
    # every bin far out in the tail, where pr_0 underflows to 0
    x = 1000.0 + _draws(0.0, 2_000, 47)
    with pytest.raises(NumericsError, match="vanishes"):
        fit_efficiency(x, method="hist")


@pytest.mark.parametrize("method", ["mle", "hist"])
def test_efficiency_fit_overflow_is_numerics_error(method):
    # 4 x^2 - 1 is inf at |x| = 1e200; the score would be NaN
    x = _draws(0.553, 2_000, 48)
    x[7] = -1e200
    with pytest.raises(NumericsError, match="overflows"):
        fit_efficiency(x, method=method)


# ---------------------------------------------------------------------------
# Diagonal sampling


def test_diagonals_recover_mixture():
    eta = 0.553
    x = _draws(eta, 12_000, 17)
    diags = sample_diagonals(x)
    assert [d.n for d in diags] == [0, 1, 2, 3]
    d0, d1, d2, d3 = diags
    assert abs(d0.rho_nn - (1.0 - eta)) < 4.0 * d0.sigma_nn
    assert abs(d1.rho_nn - eta) < 4.0 * d1.sigma_nn
    assert abs(d2.rho_nn) < 4.0 * d2.sigma_nn
    assert abs(d3.rho_nn) < 4.0 * d3.sigma_nn
    total = sum(d.rho_nn for d in diags)
    total_sigma = np.sqrt(sum(d.sigma_nn ** 2 for d in diags))
    assert abs(total - 1.0) < 4.0 * total_sigma
    for d in diags:
        assert d.sigma_nn > 0.0
        assert d.sigma_nn_uncentered >= d.sigma_nn


def test_diagonal_sigma_matches_quadrature_prediction():
    eta = 0.553
    n = 12_000
    x = _draws(eta, n, 18)
    d1 = sample_diagonals(x)[1]

    def second_moment(t):
        return marginal_density(eta, t) * (np.pi * pattern_function(1, t)) ** 2

    m2, _ = integrate.quad(second_moment, -8.0, 8.0, limit=200)
    assert m2 == pytest.approx(1.906, abs=0.002)
    sigma_unc_pred = np.sqrt(m2 / n)
    sigma_cen_pred = np.sqrt((m2 - eta ** 2) / n)
    assert d1.sigma_nn_uncentered == pytest.approx(sigma_unc_pred, rel=0.05)
    assert d1.sigma_nn == pytest.approx(sigma_cen_pred, rel=0.05)


def test_vacuum_diagonal_errors_match_quadrature():
    n = 200_000
    x = _draws(0.0, n, 19)
    diags = sample_diagonals(x, n_max=1)

    for d, order in zip(diags, (0, 1)):
        def second_moment(t, order=order):
            return marginal_density(0.0, t) * (np.pi * pattern_function(order, t)) ** 2
        m2, _ = integrate.quad(second_moment, -8.0, 8.0, limit=200)
        assert d.sigma_nn_uncentered == pytest.approx(np.sqrt(m2 / n), rel=0.05)


def test_diagonals_validation():
    x = _draws(0.5, 100, 20)
    with pytest.raises(ValidationError):
        sample_diagonals(np.array([]))
    with pytest.raises(ValidationError):
        sample_diagonals(np.array([0.1, np.nan]))
    with pytest.raises(ValidationError):
        sample_diagonals(x, n_max=4)
    with pytest.raises(ValidationError):
        sample_diagonals(x, n_max=-1)
    assert len(sample_diagonals(x, n_max=0)) == 1


@pytest.mark.parametrize("far, order", [(1e52, 3), (1e150, 1)])
def test_a_diagonal_that_overflows_is_numerics_error(far, order):
    # one vacuum sample far out: rho_33 is NaN at |x| = 1e52, rho_11 -inf at 1e150
    x = _draws(0.0, 5_000, 21)
    x[0] = far
    with pytest.raises(NumericsError, match=f"rho_{order}{order} or its error is not finite"):
        sample_diagonals(x)
    assert len(sample_diagonals(x[1:])) == 4
