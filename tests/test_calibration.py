import numpy as np
import pytest
from scipy import optimize

from focktomo import calibration
from focktomo.calibration import MIN_CALIBRATION_SAMPLES, CalibrationResult, fit_vacuum, rescale
from focktomo.errors import NumericsError, ValidationError
from focktomo.reconstruction import _scott_density
from focktomo.simulator import DetectorModel, RunSpec, generate_run, sample_quadrature
from focktomo.states import VACUUM_STD, marginal_density


def _vacuum(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return sample_quadrature(0.0, n, rng)


def test_recovers_unit_detector():
    values = _vacuum(200_000, seed=4)
    cal = fit_vacuum(values)
    assert abs(cal.scale_hat - 1.0) < 0.005
    assert abs(cal.offset_hat) < 0.005
    assert cal.n_used == 200_000
    assert cal.method == "moments"


def test_the_moments_calibration_bins_nothing(monkeypatch):
    def no_binning(*args):
        raise AssertionError("the moments calibration binned the vacuum block")

    monkeypatch.setattr(calibration, "_scott_density", no_binning)
    values = 1.3 * _vacuum(20_000, seed=24) - 0.2
    cal = fit_vacuum(values)
    assert cal.offset_hat == np.mean(values)
    assert cal.scale_hat == np.std(values, ddof=1) / 0.5


def test_recovers_scaled_detector():
    det = DetectorModel(scale=3.7, offset=-2.2)
    ds = generate_run(RunSpec(eta_true=0.0, n_vacuum=100_000, n_fock=0,
                              detector=det, seed=6))
    cal = fit_vacuum(ds.vacuum_values)
    assert cal.scale_hat == pytest.approx(3.7, rel=0.01)
    assert cal.offset_hat == pytest.approx(-2.2, abs=0.02)


@pytest.mark.parametrize("method", ["moments", "histogram"])
@pytest.mark.parametrize("a, b", [(2.5, -0.7), (1e-3, 0.05), (250.0, 1e4), (1e3, 0.0)])
def test_equivariance_is_exact(method, a, b):
    # raw -> a * raw + b moves the fit by the same map, whatever the detector's
    # units; offsets stay within 100 scales, as in test_invariance.py
    values = _vacuum(5_000, seed=1)
    base = fit_vacuum(values, method=method)
    moved = fit_vacuum(a * values + b, method=method)
    assert moved.scale_hat == pytest.approx(a * base.scale_hat, rel=1e-12)
    # the offset in units of the scale
    assert (moved.offset_hat - b) / moved.scale_hat == pytest.approx(
        base.offset_hat / base.scale_hat, abs=1e-12)


def test_idempotence():
    # calibrating an already-calibrated block returns the identity map
    values = _vacuum(50_000, seed=2)
    cal = fit_vacuum(3.0 * values + 1.0)
    again = fit_vacuum(rescale(3.0 * values + 1.0, cal))
    n = values.size
    assert abs(again.scale_hat - 1.0) < 3.0 / np.sqrt(n)
    assert abs(again.offset_hat) < 2.0 / np.sqrt(n)


def test_rescale_inverts_affine_map():
    values = _vacuum(2_000, seed=3)
    raw = 1.9 * values - 0.4
    cal = CalibrationResult(scale_hat=1.9, offset_hat=-0.4, n_used=2000)
    assert np.allclose(rescale(raw, cal), values, atol=1e-12)


def test_histogram_method_agrees_with_moments():
    values = _vacuum(100_000, seed=5)
    raw = 1.4 * values + 0.6
    mom = fit_vacuum(raw, method="moments")
    hist = fit_vacuum(raw, method="histogram")
    assert hist.method == "histogram"
    assert hist.scale_hat == pytest.approx(mom.scale_hat, rel=0.02)
    assert hist.offset_hat == pytest.approx(mom.offset_hat, abs=0.02)
    assert hist.scale_hat > 0.0


def _binned_vacuum(values):
    # The histogram fit's bins: Scott's rule around the moment solution.
    return _scott_density(values, float(np.mean(values)), float(np.std(values, ddof=1)))


def _vacuum_residuals(centers, density, scale, offset):
    # Binned empirical density minus the vacuum model, through the affine response.
    return density - marginal_density(0.0, (centers - offset) / scale) / scale


def _least_squares_reference(values):
    # The earlier histogram fit: scipy's least_squares, default tolerances,
    # bounded to 1e-6..1e6 times the moment scale, from the moment solution.
    centers, density = _binned_vacuum(values)
    offset, scale = float(np.mean(values)), float(np.std(values, ddof=1)) / VACUUM_STD
    sol = optimize.least_squares(
        lambda p: _vacuum_residuals(centers, density, p[0], p[1]), x0=[scale, offset],
        bounds=([1e-6 * scale, -np.inf], [1e6 * scale, np.inf]))
    assert sol.success
    resid = _vacuum_residuals(centers, density, sol.x[0], sol.x[1])
    return float(sol.x[0]), float(sol.x[1]), float(np.sum(resid ** 2))


@pytest.mark.parametrize("n, seed", [(1_000, 11), (5_000, 12), (200_000, 13)])
def test_histogram_fit_matches_least_squares_reference(n, seed):
    values = _vacuum(n, seed=seed)
    scale, offset, residual = _least_squares_reference(values)
    cal = fit_vacuum(values, method="histogram")
    sse = float(np.sum(_vacuum_residuals(*_binned_vacuum(values), cal.scale_hat,
                                         cal.offset_hat) ** 2))
    assert sse <= residual * (1.0 + 1e-12)
    # least_squares stops at its relative xtol of 1e-8; Gauss-Newton goes on
    assert abs(cal.scale_hat - scale) <= 1e-6 * scale
    assert abs(cal.offset_hat - offset) <= 1e-6 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [
    lambda: np.repeat([0.0, 1.0], 1000),
    lambda: np.append(_vacuum(2_000, seed=15), 1e6),
    lambda: np.random.Generator(np.random.PCG64(14)).standard_cauchy(5_000),
], ids=["two_levels", "outlier", "cauchy"])
def test_histogram_fit_fails_only_by_numerics_error(block):
    # a block the vacuum model cannot fit ends in NumericsError or in a fit
    try:
        cal = fit_vacuum(block(), method="histogram")
    except NumericsError:
        return
    assert cal.scale_hat > 0.0


def test_minimum_sample_floor():
    with pytest.raises(ValidationError, match=str(MIN_CALIBRATION_SAMPLES)):
        fit_vacuum(np.zeros(999) + np.linspace(0, 1, 999))


def test_degenerate_input_rejected():
    with pytest.raises(NumericsError, match="has zero variance"):
        fit_vacuum(np.full(2000, 1.25))


@pytest.mark.parametrize("scale", [1e160, 1e306])
def test_a_spread_or_mean_that_overflows_is_numerics_error(scale):
    # finite values whose squared spread (1e160) or sum (1e306) overflows
    values = scale * _vacuum(2_000, seed=11)
    with pytest.raises(NumericsError, match="overflows float64"):
        fit_vacuum(values)


def test_non_finite_rejected():
    values = _vacuum(2_000, seed=9)
    values[17] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        fit_vacuum(values)


def test_shape_and_method_validation():
    values = _vacuum(2_000, seed=10)
    with pytest.raises(ValidationError):
        fit_vacuum(values.reshape(2, -1))
    with pytest.raises(ValidationError, match="method"):
        fit_vacuum(values, method="bogus")


def test_result_validation():
    with pytest.raises(ValidationError):
        CalibrationResult(scale_hat=0.0, offset_hat=0.0, n_used=10)
    with pytest.raises(ValidationError):
        CalibrationResult(scale_hat=1.0, offset_hat=np.nan, n_used=10)
