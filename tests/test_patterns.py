import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from focktomo.errors import ValidationError
from focktomo.patterns import MAX_ORDER, _dawson, fock_marginal, pattern_function
from focktomo.states import marginal_density


def _overlap(m: int, n: int) -> float:
    val, _ = integrate.quad(
        lambda x: np.pi * fock_marginal(m, x) * pattern_function(n, x),
        -8.0, 8.0, limit=200, epsabs=1e-12, epsrel=1e-12,
    )
    return val


def test_orthonormality_contract():
    # the defining property: pi * integral pr_m f_nn dX = delta_mn
    for m in range(MAX_ORDER + 1):
        for n in range(MAX_ORDER + 1):
            expected = 1.0 if m == n else 0.0
            assert _overlap(m, n) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.553, 1.0])
def test_mixture_diagonals_by_quadrature(eta):
    # pi * integral pr_eta f_nn dX must give (1 - eta, eta, 0, 0)
    expected = [1.0 - eta, eta, 0.0, 0.0]
    for n in range(MAX_ORDER + 1):
        val, _ = integrate.quad(
            lambda x: np.pi * marginal_density(eta, x) * pattern_function(n, x),
            -8.0, 8.0, limit=200, epsabs=1e-12, epsrel=1e-12,
        )
        assert val == pytest.approx(expected[n], abs=1e-8)


def test_values_at_origin():
    # f_nn(0) alternates as (-1)^n * 2/pi for this family
    for n in range(MAX_ORDER + 1):
        assert pattern_function(n, 0.0) == pytest.approx(
            ((-1) ** n) * 2.0 / np.pi, rel=1e-12
        )


@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
       st.integers(min_value=0, max_value=MAX_ORDER))
def test_evenness(x, n):
    assert pattern_function(n, -x) == pytest.approx(pattern_function(n, x), abs=1e-14)


def test_bounded_and_decaying():
    x = np.linspace(-8.0, 8.0, 4001)
    for n in range(MAX_ORDER + 1):
        f = pattern_function(n, x)
        assert np.all(np.isfinite(f))
        assert np.max(np.abs(f)) < 1.0
        tail = np.abs(x) >= 5.0
        assert np.max(np.abs(f[tail])) < 0.01


def test_order_validation():
    for bad in [-1, MAX_ORDER + 1, 1.5, True]:
        with pytest.raises(ValueError):
            pattern_function(bad, 0.0)


def test_fock_marginal_normalized_and_nonnegative():
    x = np.linspace(-8.0, 8.0, 4001)
    for n in range(MAX_ORDER + 1):
        assert np.all(fock_marginal(n, x) >= 0.0)
        total, _ = integrate.quad(lambda t: fock_marginal(n, t), -8.0, 8.0)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_fock_marginal_matches_mixture_extremes():
    x = np.linspace(-4.0, 4.0, 101)
    assert np.allclose(fock_marginal(0, x), marginal_density(0.0, x), atol=1e-14)
    assert np.allclose(fock_marginal(1, x), marginal_density(1.0, x), atol=1e-14)


def _mp_dawson(q: float) -> float:
    with mpmath.workdps(40):
        x = mpmath.mpf(q)
        return float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x))


_DAWSON_POINTS = [0.0, 1e-300, 1e-8, 0.1, np.nextafter(0.2, 0.0), 0.2, np.nextafter(0.2, 1.0),
                  1.0, 5.0, 12.0, 20.0, 50.0, 100.0]


def test_dawson_matches_mpmath():
    # the series (|q| < 0.2), Rybicki's sum and both sides of the switch
    q = np.array(_DAWSON_POINTS + [-p for p in _DAWSON_POINTS])
    reference = np.array([_mp_dawson(v) for v in q])
    values = _dawson(q)
    assert np.all(np.abs(values - reference) <= 1e-14 * np.abs(reference))
    assert np.array_equal(np.signbit(values), np.signbit(q))


def test_dawson_dense_grid_and_extremes():
    q = np.concatenate([np.linspace(0.0, 12.0, 1201), np.geomspace(12.0, 1e12, 60)])
    reference = np.array([_mp_dawson(v) for v in q])
    assert np.all(np.abs(_dawson(q) - reference) <= 1e-14 * np.abs(reference))
    ends = _dawson(np.array([np.inf, -np.inf, np.nan, 1e300, -1e300]))
    assert ends[0] == 0.0 and ends[1] == 0.0 and np.isnan(ends[2])
    assert ends[3] == 0.5e-300 and ends[4] == -0.5e-300


@pytest.mark.parametrize("bad", [1.5, True, -1, MAX_ORDER + 1])
def test_fock_marginal_order_validation(bad):
    # both functions reject a non-integer, a bool and an order outside 0..3
    with pytest.raises(ValidationError, match="order"):
        fock_marginal(bad, 0.3)
    with pytest.raises(ValidationError, match="order"):
        pattern_function(bad, 0.3)


def test_fock_marginal_closed_form_hermite():
    x = np.linspace(-4.0, 4.0, 801)
    q = np.sqrt(2.0) * x
    hermite = [np.ones_like(q), 2.0 * q, 4.0 * q * q - 2.0, 8.0 * q ** 3 - 12.0 * q]
    for n, (h, fact) in enumerate(zip(hermite, (1, 1, 2, 6))):
        expected = np.sqrt(2.0 / np.pi) * np.exp(-2.0 * x * x) * h * h / (2.0 ** n * fact)
        assert np.allclose(fock_marginal(n, x), expected, rtol=1e-13, atol=1e-300)
