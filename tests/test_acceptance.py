"""Acceptance gate: each test prints one [PASS]/[FAIL] line (visible with
pytest -s) and then asserts, so a red run still shows every criterion's
outcome in the captured output.

The eight criteria: the analytic origin value, the Abel inverter against
closed forms, full synthetic runs at the reference scale, vacuum controls,
the sign of W(0) recovered above and below eta = 1/2, error bars
calibrated over 200 repetitions, pattern-function orthonormality, and the
budget."""

import time

import numpy as np
from scipy import integrate

from focktomo.budget import check_agreement, combine, default_factors
from focktomo.calibration import rescale
from focktomo.patterns import fock_marginal, pattern_function
from focktomo.pipeline import reconstruct_dataset
from focktomo.reconstruction import abel_inverse, sample_diagonals
from focktomo.simulator import RunSpec, generate_run
from focktomo.states import marginal_density, wigner_radial


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail}")


def test_criterion_1_analytic_origin_value():
    value = wigner_radial(0.553, 0.0)
    ok = abs(value - (-0.0675)) < 5e-4
    _report(1, ok, f"wigner_radial(0.553, 0) = {value:.6f}, expected -0.0675 within 5e-4")
    assert ok


def test_criterion_2_abel_oracle():
    t0 = time.perf_counter()
    sup_errors = {}
    for eta in (0.0, 0.553, 1.0):
        x = np.linspace(0.0, 6.0, 2001)
        profile = abel_inverse(x, marginal_density(eta, x))
        mask = profile.radii <= 3.0
        exact = wigner_radial(eta, profile.radii[mask])
        sup_errors[eta] = float(np.max(np.abs(profile.values[mask] - exact)))
    elapsed = time.perf_counter() - t0
    worst = max(sup_errors.values())
    ok = worst < 1e-3 and elapsed < 1.0
    _report(2, ok, f"Abel sup-error on R in [0,3]: "
                   + ", ".join(f"eta={e}: {v:.2e}" for e, v in sup_errors.items())
                   + f" (bound 1e-3), {elapsed:.2f} s (bound 1 s)")
    assert ok


def _smoothed_origin(eta, h, w):
    # W_h(0) of the mixture: the origin of W blurred by the kernel of width h
    # and by binning at width w, which adds w^2/12 to h^2
    s = 1.0 + 4.0 * (h * h + w * w / 12.0)
    return (2.0 / (np.pi * s)) * ((1.0 - eta) + eta * (1.0 - 2.0 / s))


def test_criterion_3_reference_scale_end_to_end():
    t0 = time.perf_counter()
    spec = RunSpec(eta_true=0.553, n_vacuum=200_000, n_fock=12_000, seed=42)
    dataset = generate_run(spec)
    summary = reconstruct_dataset(dataset)
    elapsed = time.perf_counter() - t0

    eta_hat = summary.efficiency.eta_hat
    sigma11 = summary.diagonals[1].sigma_nn
    w0 = summary.wigner_origin_reconstructed
    # W(0) estimates W_h(0), not W(0); its iid error is that of the R = 0
    # kernel f_00(x / 2h) / 4h^2 over the calibrated signal
    h = summary.density.bandwidth
    edges = summary.histogram.bin_edges
    target = _smoothed_origin(0.553, h, edges[1] - edges[0])
    kernel = pattern_function(0, rescale(dataset.fock_values, summary.calibration) / (2.0 * h))
    kernel /= 4.0 * h * h
    sigma_w0 = float(np.std(kernel, ddof=1)) / np.sqrt(kernel.size)
    z_w0 = (w0 - target) / sigma_w0
    origin_model = wigner_radial(eta_hat, 0.0)
    ok_eta = abs(eta_hat - 0.553) <= 0.026
    ok_sigma = 0.009 <= sigma11 <= 0.017
    ok_w0 = abs(w0 - target) <= 3.0 * sigma_w0
    ok_model = origin_model < 0.0
    ok_time = elapsed < 30.0
    ok = ok_eta and ok_sigma and ok_w0 and ok_model and ok_time
    _report(3, ok, f"eta_hat = {eta_hat:.4f} (|diff| = {abs(eta_hat-0.553):.4f}, "
                   f"bound 0.026), sigma_11 = {sigma11:.4f} (bracket [0.009, 0.017]), "
                   f"reconstructed W(0) = {w0:.4f} against W_h(0) = {target:.4f} "
                   f"+- {sigma_w0:.4f} (z = {z_w0:+.2f}, bound 3), "
                   f"model W(0) at eta_hat = {origin_model:.4f} (< 0), "
                   f"{elapsed:.1f} s (bound 30 s)")
    assert ok


def test_criterion_4_vacuum_control():
    t0 = time.perf_counter()
    spec = RunSpec(eta_true=0.0, n_vacuum=200_000, n_fock=0, seed=7)
    summary = reconstruct_dataset(generate_run(spec))
    elapsed = time.perf_counter() - t0

    d0, d1 = summary.diagonals[0], summary.diagonals[1]
    ok_rho0 = abs(d0.rho_nn - 1.0) <= 3.0 * d0.sigma_nn
    ok_rho1 = abs(d1.rho_nn) <= 3.0 * d1.sigma_nn
    # sigma ~ 0.003 within +-50%
    ok_scale = (0.0015 <= d0.sigma_nn <= 0.0045) and (0.0015 <= d1.sigma_nn <= 0.0045)
    ok_time = elapsed < 10.0
    ok = ok_rho0 and ok_rho1 and ok_scale and ok_time
    _report(4, ok, f"rho_00 = {d0.rho_nn:.4f} +- {d0.sigma_nn:.4f} (within 3 sigma of 1), "
                   f"rho_11 = {d1.rho_nn:.4f} +- {d1.sigma_nn:.4f} (within 3 sigma of 0), "
                   f"sigmas in [0.0015, 0.0045], {elapsed:.1f} s (bound 10 s)")
    assert ok


def test_criterion_5_negativity_threshold():
    results = {}
    ok_time = True
    for eta, seed in ((0.55, 11), (0.45, 12)):
        t0 = time.perf_counter()
        spec = RunSpec(eta_true=eta, n_vacuum=10_000, n_fock=1_000_000, seed=seed)
        summary = reconstruct_dataset(generate_run(spec))
        elapsed = time.perf_counter() - t0
        results[eta] = (summary.wigner_origin_reconstructed, elapsed)
        ok_time = ok_time and elapsed < 60.0
    ok_sign = results[0.55][0] < 0.0 and results[0.45][0] > 0.0
    ok = ok_sign and ok_time
    _report(5, ok, f"N=1e6: W(0) = {results[0.55][0]:+.4f} at eta=0.55 (< 0), "
                   f"{results[0.45][0]:+.4f} at eta=0.45 (> 0); "
                   f"{results[0.55][1]:.1f} s / {results[0.45][1]:.1f} s (bound 60 s each)")
    assert ok


def test_criterion_6_error_formula_consistency():
    t0 = time.perf_counter()
    rho11 = np.empty(200)
    sigma11 = np.empty(200)
    for k in range(200):
        spec = RunSpec(eta_true=0.553, n_vacuum=0, n_fock=12_000, seed=k)
        d1 = sample_diagonals(generate_run(spec).fock_values, n_max=1)[1]
        rho11[k] = d1.rho_nn
        sigma11[k] = d1.sigma_nn
    elapsed = time.perf_counter() - t0
    empirical = float(np.std(rho11, ddof=1))
    mean_reported = float(np.mean(sigma11))
    ratio = empirical / mean_reported
    ok = abs(ratio - 1.0) <= 0.25 and elapsed < 600.0
    _report(6, ok, f"200 runs at N=12000: empirical std(rho_11) = {empirical:.5f}, "
                   f"mean sigma_11 = {mean_reported:.5f}, ratio = {ratio:.3f} "
                   f"(within 25% of 1), {elapsed:.1f} s (bound 600 s)")
    assert ok


def test_criterion_7_pattern_function_contract():
    t0 = time.perf_counter()
    matrix = np.empty((4, 4))
    for m in range(4):
        for n in range(4):
            matrix[m, n], _ = integrate.quad(
                lambda x: np.pi * fock_marginal(m, x) * pattern_function(n, x),
                -8.0, 8.0, limit=200, epsabs=1e-12, epsrel=1e-12,
            )
    elapsed = time.perf_counter() - t0
    deviation = float(np.max(np.abs(matrix - np.eye(4))))
    ok = deviation < 1e-6 and elapsed < 1.0
    _report(7, ok, f"4x4 orthonormality max deviation from identity = {deviation:.2e} "
                   f"(bound 1e-6), {elapsed:.2f} s (bound 1 s)")
    assert ok


def test_criterion_8_budget_reproduction():
    result = combine(default_factors())
    # 0.83^2 * 0.95 * 0.90 * 0.98 = 0.5772..., quoted as 0.57 +- 0.02; the
    # quoted values are read as value +- tolerance bands
    ok_eta = abs(result.eta_predicted - 0.57) <= 0.02
    ok_unc = abs(result.eta_uncertainty - 0.02) <= 0.01
    agreement = check_agreement(result, eta_fitted=0.553, eta_fitted_stderr=0.013)
    ok = ok_eta and ok_unc and agreement.passed
    _report(8, ok, f"combine -> {result.eta_predicted:.4f} +- {result.eta_uncertainty:.4f} "
                   f"(0.57 +- 0.02 band), agreement vs 0.553 +- 0.013: "
                   f"|diff| = {agreement.difference:.4f} <= {agreement.tolerance:.4f}")
    assert ok
