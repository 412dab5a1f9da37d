"""Channel generation, MMSE estimation, and SNR-atom discretization."""

import numpy as np
import pytest

from ofdma_sra import (ChannelConfig, SnrDistribution, conditional_snr_dist,
                       draw_channel, mmse_estimate)


def cfg(n=8, k=3, l=2, snr=10.0, pilot=0.0):
    return ChannelConfig(n_subchannels=n, n_users=k, tap_count=l,
                         snr_db=snr, pilot_snr_db=pilot)


# -- channel draws -----------------------------------------------------------


def test_single_tap_channel_is_flat():
    real = draw_channel(cfg(n=8, k=4, l=1), seed=5)
    # one tap: |h_{n,k}| = |g_{1,k}| for every n (unit-modulus DFT entries)
    spread = real.true_snr.max(axis=0) - real.true_snr.min(axis=0)
    assert np.all(spread < 1e-12)


def test_mean_snr_is_one():
    c = ChannelConfig(n_subchannels=64, n_users=16, tap_count=2)
    acc = 0.0
    n_draws = 10_000
    for s in range(n_draws):
        acc += draw_channel(c, seed=s).true_snr.mean()
    assert 0.98 <= acc / n_draws <= 1.02


def test_draw_determinism():
    a = draw_channel(cfg(), seed=123)
    b = draw_channel(cfg(), seed=123)
    assert np.array_equal(a.taps, b.taps)
    assert np.array_equal(a.true_snr, b.true_snr)
    c = draw_channel(cfg(), seed=124)
    assert not np.array_equal(a.taps, c.taps)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(n_subchannels=4, n_users=2, tap_count=4)
    with pytest.raises(ValueError):
        ChannelConfig(n_subchannels=4, n_users=0)


# -- MMSE estimation ---------------------------------------------------------


def dense_mmse_oracle(c: ChannelConfig, real, seed):
    """Direct dense-matrix evaluation of the conditional-Gaussian formulas."""
    f = c.dft_columns()
    r_hh = c.sigma_g2 * f @ f.conj().T
    pp = c.pilot_power
    r_hy = np.sqrt(pp) * r_hh
    r_yy = pp * r_hh + np.eye(c.n_subchannels)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    noise = (rng.standard_normal((c.n_subchannels, c.n_users))
             + 1j * rng.standard_normal((c.n_subchannels, c.n_users))) / np.sqrt(2)
    obs = np.sqrt(pp) * real.freq_gains + noise
    inv = np.linalg.inv(r_yy)
    mean = r_hy @ inv @ obs
    cov = r_hh - r_hy @ inv @ r_hy.conj().T
    return mean, np.real(np.diag(cov))


def test_mmse_matches_dense_oracle():
    c = cfg(n=4, k=2, l=2, pilot=0.0)  # pilot power 1
    real = draw_channel(c, seed=42)
    est = mmse_estimate(c, real, seed=42)
    mean_ref, diag_ref = dense_mmse_oracle(c, real, seed=42)
    assert np.max(np.abs(est.mean - mean_ref)) < 1e-10
    assert abs(est.est_error_var - diag_ref[0]) < 1e-10


def test_mmse_cov_diagonal_equal():
    for n, l in [(8, 2), (16, 3), (5, 4)]:
        c = cfg(n=n, k=2, l=l, pilot=-3.0)
        est = mmse_estimate(c, draw_channel(c, seed=1), seed=1)
        assert est.cov_diagonal.max() - est.cov_diagonal.min() < 1e-10


def test_mmse_no_pilot_limit():
    c = cfg(pilot=-200.0)
    real = draw_channel(c, seed=0)
    est = mmse_estimate(c, real, seed=0)
    assert np.max(np.abs(est.mean)) < 1e-7
    assert abs(est.est_error_var - c.sigma_g2 * c.tap_count) < 1e-7


def test_mmse_perfect_pilot_limit():
    c = cfg(pilot=200.0)
    real = draw_channel(c, seed=0)
    est = mmse_estimate(c, real, seed=0)
    assert est.est_error_var < 1e-10
    assert np.max(np.abs(est.mean - real.freq_gains)) < 1e-7


def test_mmse_orthogonality():
    # estimation error should be uncorrelated with the estimate
    c = cfg(n=8, k=2, l=2, pilot=0.0)
    num = 0.0
    d_err = 0.0
    d_est = 0.0
    for s in range(1000):
        real = draw_channel(c, seed=s)
        est = mmse_estimate(c, real, seed=s)
        err = real.freq_gains - est.mean
        num += np.sum(np.conj(err) * est.mean)
        d_err += np.sum(np.abs(err) ** 2)
        d_est += np.sum(np.abs(est.mean) ** 2)
    corr = abs(num) / np.sqrt(d_err * d_est)
    assert corr < 0.05


# -- conditional SNR atoms ---------------------------------------------------


def test_zero_error_gives_point_mass():
    d = conditional_snr_dist(0.8 + 0.6j, 0.0, 64)
    assert d.n_atoms == 1
    assert d.values[0] == pytest.approx(1.0)
    assert d.weights[0] == 1.0


def test_exponential_case_mean():
    d = conditional_snr_dist(0.0, 1.0, 64)
    assert d.mean == pytest.approx(1.0, rel=5e-3)


def test_noncentral_mean():
    d = conditional_snr_dist(1.0, 0.5, 64)
    assert d.mean == pytest.approx(1.5, rel=5e-3)


def test_second_moments():
    # E{g^2} = s^4 + 2 s^2 |h|^2 + (|h|^2 + s^2)^2
    for h2, s2 in [(1.0, 0.5), (0.2, 0.05), (3.0, 1.0)]:
        d = conditional_snr_dist(np.sqrt(h2), s2, 64)
        m2 = s2 ** 2 + 2 * s2 * h2 + (h2 + s2) ** 2
        assert d.second_moment == pytest.approx(m2, rel=5e-3)
    # heaviest-tail corner (pure exponential): quantile atoms carry ~0.9%
    # second-moment bias at 64 atoms; halves with each doubling
    d64 = conditional_snr_dist(0.0, 1.0, 64)
    d256 = conditional_snr_dist(0.0, 1.0, 256)
    assert d64.second_moment == pytest.approx(2.0, rel=1.2e-2)
    assert d256.second_moment == pytest.approx(2.0, rel=5e-3)


def test_atom_invariants():
    for h, s2, n in [(0.3 + 1j, 0.7, 64), (0.0, 1.0, 32), (2.0, 0.01, 128)]:
        d = conditional_snr_dist(h, s2, n)
        assert d.n_atoms == n
        assert np.all(d.values >= 0.0)
        assert np.all(np.diff(d.values) >= 0.0)
        assert abs(d.weights.sum() - 1.0) <= 1e-12
        assert np.dot(d.weights, np.ones(n)) == 1.0


def test_spike_collapse_guard():
    # tiny estimation error: the conditional law is a spike; a single atom
    # at the mean replaces the (numerically fragile) chi-squared quantiles
    d = conditional_snr_dist(1.0, 1e-21, 64)
    assert d.n_atoms == 1
    assert d.mean == pytest.approx(1.0)


def test_perfect_pilot_pipeline_matches_truth():
    # sigma_e^2 -> 0 end to end: conditional atoms collapse onto true SNRs
    c = cfg(n=6, k=2, l=2, pilot=200.0)
    real = draw_channel(c, seed=8)
    est = mmse_estimate(c, real, seed=8)
    for n in range(6):
        for k in range(2):
            d = conditional_snr_dist(est.mean[n, k], est.est_error_var, 32)
            assert d.mean == pytest.approx(real.true_snr[n, k], rel=1e-8)


def test_bad_arguments():
    with pytest.raises(ValueError):
        conditional_snr_dist(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        SnrDistribution([1.0, -0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        SnrDistribution([1.0, 2.0], [0.5, -0.5])
    with pytest.raises(ValueError):
        SnrDistribution([1.0], [0.0])


def test_from_samples_uniform():
    d = SnrDistribution.from_samples([0.5, 1.5, 2.5, 3.5])
    assert d.mean == pytest.approx(2.0)
    assert np.dot(d.weights, np.ones(4)) == 1.0
