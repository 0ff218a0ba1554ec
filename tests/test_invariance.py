"""Invariances the reconstruction chain must keep, as properties over seeds.

Each example simulates a 20k + 2k run and reconstructs it twice: once as
drawn and once transformed.  A transformation the model cannot see must leave
the histogram exactly as it was (or exactly mirrored), and may move the
fitted numbers only by rounding.  Each tolerance below is about ten times
the largest deviation measured over 600 draws of its property (seeds,
efficiencies, scales and offsets drawn as here, half of them at the ends of
their ranges), which is stated next to it.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from focktomo.pipeline import reconstruct_dataset
from focktomo.simulator import DetectorModel, HomodyneDataset, RunSpec, generate_run

N_VACUUM, N_FOCK = 20_000, 2_000

seeds = st.integers(min_value=0, max_value=2**32 - 1)
etas = st.floats(min_value=0.0, max_value=1.0)


def _run(eta, seed, detector=None):
    spec = RunSpec(eta_true=eta, n_vacuum=N_VACUUM, n_fock=N_FOCK, seed=seed)
    return generate_run(spec if detector is None else replace(spec, detector=detector))


def _assert_fits_close(got, want, tol):
    # eta_hat, eta_stderr and every rho_nn and sigma_nn, absolutely: they are
    # at most about 1, and eta_hat or rho_nn at 0 has no relative scale.
    for key in ("eta_hat", "eta_stderr"):
        assert abs(getattr(got.efficiency, key) - getattr(want.efficiency, key)) <= tol, key
    for mine, theirs in zip(got.diagonals, want.diagonals, strict=True):
        assert abs(mine.rho_nn - theirs.rho_nn) <= tol, mine.n
        assert abs(mine.sigma_nn - theirs.sigma_nn) <= tol, mine.n


@settings(max_examples=40)
@given(seed=seeds, eta=etas, log_scale=st.floats(min_value=-3.0, max_value=3.0),
       offset_in_scales=st.floats(min_value=-100.0, max_value=100.0))
def test_detector_map_is_calibrated_away(seed, eta, log_scale, offset_in_scales):
    # raw = scale * X + offset against the unit map.  The map costs X about
    # |offset| / scale ulps, hence offsets of at most 100 scales: with more,
    # a sample within that much of a bin edge may change bins.
    # Measured: counts and profile identical; eta_hat 2.1e-15, eta_stderr
    # 3.8e-15, rho_nn 7.2e-15 and sigma_nn 1.5e-16.
    scale = 10.0 ** log_scale
    detector = DetectorModel(scale=scale, offset=offset_in_scales * scale)
    unit = reconstruct_dataset(_run(eta, seed))
    mapped = reconstruct_dataset(_run(eta, seed, detector))
    assert np.array_equal(mapped.histogram.counts, unit.histogram.counts)
    assert np.array_equal(mapped.profile.values, unit.profile.values)
    _assert_fits_close(mapped, unit, tol=1e-13)


@settings(max_examples=40)
@given(seed=seeds, eta=etas, shuffle_seed=seeds)
def test_event_order_within_a_block_does_not_matter(seed, eta, shuffle_seed):
    # Only pairwise summation sees the order.  Measured: counts and profile
    # identical (so W(0) too); eta_hat 2.8e-16, eta_stderr 1.7e-17, rho_nn
    # 1.1e-15 and sigma_nn 2.1e-17.
    run = _run(eta, seed)
    rng = np.random.default_rng(shuffle_seed)
    perm = np.concatenate([rng.permutation(N_VACUUM), N_VACUUM + rng.permutation(N_FOCK)])
    shuffled = HomodyneDataset(spec=run.spec, raw_value=run.raw_value[perm])
    got, want = reconstruct_dataset(shuffled), reconstruct_dataset(run)
    assert np.array_equal(got.histogram.counts, want.histogram.counts)
    assert np.array_equal(got.profile.values, want.profile.values)
    _assert_fits_close(got, want, tol=1e-14)


@settings(max_examples=40)
@given(seed=seeds, eta=etas)
def test_reflecting_the_signal_about_the_vacuum_mean(seed, eta):
    # raw -> 2 mean(vacuum) - raw reflects the calibrated signal about 0, and
    # pr is even.  (About raw = 0 it is no invariance: the calibrated offset
    # is not 0.)  The histogram mirrors exactly; the rule bandwidth, summed
    # in the mirrored order, moves by about an ulp.  Measured: eta_hat 1.1e-16,
    # eta_stderr 6.3e-17, rho_nn 1.3e-15 and sigma_nn 1.4e-17; the profile
    # 1.2e-13 (its maximum is about 0.6).
    run = _run(eta, seed)
    raw = run.raw_value.copy()
    raw[N_VACUUM:] = 2.0 * np.mean(raw[:N_VACUUM]) - raw[N_VACUUM:]
    got = reconstruct_dataset(HomodyneDataset(spec=run.spec, raw_value=raw))
    want = reconstruct_dataset(run)
    assert np.array_equal(got.histogram.counts, want.histogram.counts[::-1])
    assert np.max(np.abs(got.profile.values - want.profile.values)) <= 1e-12
    _assert_fits_close(got, want, tol=2e-14)


@settings(max_examples=50)
@given(seed=seeds, eta=etas, dark=st.floats(min_value=0.0, max_value=0.99))
def test_dark_counts_are_a_lower_efficiency(seed, eta, dark):
    # A dark event is a vacuum draw in the signal block, so a dark fraction d
    # at efficiency eta draws exactly what efficiency eta (1 - d) draws.
    # Measured: identical arrays.
    got = _run(eta, seed, DetectorModel(dark_fraction=dark))
    want = _run(eta * (1.0 - dark), seed)
    assert np.array_equal(got.raw_value, want.raw_value)
