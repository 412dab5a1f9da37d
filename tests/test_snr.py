"""Channel generation, MMSE estimation, and SNR-atom discretization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_sra import (ChannelConfig, SnrDistribution, conditional_snr_dist,
                       draw_channel, mmse_estimate)
from ofdma_sra import snr
from ofdma_sra.snr import NC_COLLAPSE_THRESHOLD


def mean(d):
    return np.sum(d.weights * d.values, axis=-1)


def second_moment(d):
    return np.sum(d.weights * d.values ** 2, axis=-1)


def from_samples(samples):
    """Equal-weight atoms at the given samples."""
    samples = np.asarray(samples, dtype=float)
    return SnrDistribution(samples, np.full(samples.size, 1.0 / samples.size))


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
    assert mean(d) == pytest.approx(1.0, rel=5e-3)


def test_noncentral_mean():
    d = conditional_snr_dist(1.0, 0.5, 64)
    assert mean(d) == pytest.approx(1.5, rel=5e-3)


def test_second_moments():
    # E{g^2} = s^4 + 2 s^2 |h|^2 + (|h|^2 + s^2)^2
    for h2, s2 in [(1.0, 0.5), (0.2, 0.05), (3.0, 1.0)]:
        d = conditional_snr_dist(np.sqrt(h2), s2, 64)
        m2 = s2 ** 2 + 2 * s2 * h2 + (h2 + s2) ** 2
        assert second_moment(d) == pytest.approx(m2, rel=5e-3)
    # heaviest-tail corner (pure exponential): quantile atoms carry ~0.9%
    # second-moment bias at 64 atoms; halves with each doubling
    d64 = conditional_snr_dist(0.0, 1.0, 64)
    d256 = conditional_snr_dist(0.0, 1.0, 256)
    assert second_moment(d64) == pytest.approx(2.0, rel=1.2e-2)
    assert second_moment(d256) == pytest.approx(2.0, rel=5e-3)


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
    assert mean(d) == pytest.approx(1.0)


def test_perfect_pilot_pipeline_matches_truth():
    # sigma_e^2 -> 0 end to end: conditional atoms collapse onto true SNRs
    c = cfg(n=6, k=2, l=2, pilot=200.0)
    real = draw_channel(c, seed=8)
    est = mmse_estimate(c, real, seed=8)
    d = conditional_snr_dist(est.mean, est.est_error_var, 32)
    np.testing.assert_allclose(mean(d), real.true_snr, rtol=1e-8)


def assert_batch_matches_single(hhat, s2, n_atoms):
    """Each law of the batch has the bits of the same law built alone; the
    atoms past the lone law's count are zero-valued, zero-weight padding."""
    batch = conditional_snr_dist(hhat, s2, n_atoms)
    assert batch.values.shape == np.shape(hhat) + (batch.n_atoms,)
    rows = zip(np.ravel(hhat), batch.values.reshape(-1, batch.n_atoms),
               batch.weights.reshape(-1, batch.n_atoms))
    for h, values, weights in rows:
        one = conditional_snr_dist(h, s2, n_atoms)
        assert np.array_equal(values[:one.n_atoms], one.values)
        assert np.array_equal(weights[:one.n_atoms], one.weights)
        assert not np.any(values[one.n_atoms:])
        assert not np.any(weights[one.n_atoms:])
    return batch


def test_batched_atoms_match_single_laws():
    # zero estimate, ordinary estimates and one spike in one batch
    s2 = 0.5
    h_spike = np.sqrt(NC_COLLAPSE_THRESHOLD * s2)  # nc = 2 * threshold
    hhat = np.array([[0.0, 0.3 + 1.0j, 2.0 - 0.1j],
                     [1e-9j, h_spike, 0.7]])
    batch = assert_batch_matches_single(hhat, s2, 32)
    assert batch.n_atoms == 32
    # the spike keeps a single atom at its mean; the rest of its row is padding
    assert np.count_nonzero(batch.weights, axis=-1).tolist() == [[32, 32, 32],
                                                                 [32, 1, 32]]
    assert batch.weights[1, 1, 0] == 1.0
    assert batch.values[1, 1, 0] == np.abs(h_spike) ** 2 + s2
    # a pilot-estimated channel at full atom count
    c = cfg(n=8, k=3, pilot=-10.0)
    est = mmse_estimate(c, draw_channel(c, seed=4), seed=4)
    assert_batch_matches_single(est.mean, est.est_error_var, 64)


def test_batched_atoms_degenerate_cases():
    # batches of point masses only have one atom per law
    hhat = np.array([0.0, 0.8 + 0.6j, 3.0])
    exact = assert_batch_matches_single(hhat, 0.0, 64)
    assert exact.values.shape == (3, 1)
    single = assert_batch_matches_single(hhat, 0.25, 1)
    assert single.values.shape == (3, 1)
    assert single.values[1, 0] == pytest.approx(1.25)
    spikes = assert_batch_matches_single(hhat[1:], 1e-21, 16)
    assert spikes.values.shape == (2, 1)
    assert np.all(spikes.weights == 1.0)


def test_batched_centers_match_scalar_square():
    # |hhat|^2 as numpy's scalar ** computes it (C pow); the array ** squares
    # instead and differs in the last bit for about one input in a thousand
    rng = np.random.default_rng(11)
    hhat = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    batch = conditional_snr_dist(hhat, 0.0, 8)
    want = [float(np.abs(h) ** 2) for h in hhat]
    assert batch.values[:, 0].tolist() == want


def test_batched_atoms_degenerate_bin_fallback(monkeypatch):
    # a repeated quantile edge leaves a bin without mass; only that law's
    # bin falls back to its own mean, 2 + nc in chi-squared units
    s2 = 0.5
    hhat = np.array([0.4, 1.0, 1.5])
    target = 2.0 * 1.0 / s2
    ppf = snr.ncx2.ppf

    class Ncx2:
        cdf = staticmethod(snr.ncx2.cdf)

        @staticmethod
        def ppf(q, df, nc):
            edges = ppf(q, df, nc)        # (laws, n_atoms + 1)
            hit = (nc == target).ravel()
            edges[hit, 1] = edges[hit, 2]
            return edges

    monkeypatch.setattr(snr, "ncx2", Ncx2)
    batch = assert_batch_matches_single(hhat, s2, 8)
    assert batch.values[1, 1] == 0.5 * s2 * (2.0 + target)
    for values in batch.values[[0, 2]]:
        assert np.all(np.diff(values) > 0.0)


# -- weight normalization ------------------------------------------------------


def normalized_alone(weights):
    """One law's weights normalized on their own, as a 1-D array: divide by
    the total, then the heaviest atom absorbs the remainder twice."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    heaviest = int(np.argmax(w))
    for _ in range(2):
        w[heaviest] += 1.0 - w.sum()
    return w


@st.composite
def padded_laws(draw):
    """Laws of 1 to 40 positive weights, zero-padded to one batch width."""
    weight = st.floats(1e-3, 1e3)
    laws = draw(st.lists(st.lists(weight, min_size=1, max_size=40),
                         min_size=1, max_size=6))
    width = max(map(len, laws)) + draw(st.integers(0, 20))
    padded = np.zeros((len(laws), width))
    for row, law in zip(padded, laws):
        row[:len(law)] = law
    return laws, padded


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(padded_laws())
def test_batched_normalization_matches_each_law_alone(case):
    laws, padded = case
    batch = SnrDistribution(np.ones_like(padded), padded)
    # a 3-D batch, from a Fortran-ordered array, has the same bits per law
    twice = np.asfortranarray([padded, padded])
    assert np.array_equal(SnrDistribution(np.ones_like(twice), twice).weights,
                          [batch.weights, batch.weights])
    for row, law, raw in zip(batch.weights, laws, padded):
        want = normalized_alone(law)
        assert np.array_equal(row[:len(law)], want)
        assert not np.any(row[len(law):])
        for alone in (law, raw):  # unpadded, and padded but on its own
            got = SnrDistribution(np.ones(len(alone)), alone).weights
            assert np.array_equal(got[:len(law)], want)


def test_equal_weights_renormalize_to_the_same_bits():
    # the trial prior broadcasts one normalized law and normalizes it again
    for n in range(1, 1025):
        law = SnrDistribution(np.ones(n), np.full(n, 1.0 / n))
        again = SnrDistribution(law.values, law.weights)
        assert np.array_equal(again.weights, law.weights)


def test_bad_arguments():
    with pytest.raises(ValueError):
        conditional_snr_dist(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        SnrDistribution([1.0, -0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        SnrDistribution([1.0, 2.0], [0.5, -0.5])
    with pytest.raises(ValueError):
        SnrDistribution([1.0], [0.0])
    for atom in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SnrDistribution([atom, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        SnrDistribution([1.0, 2.0], [0.5, np.nan])
    # one bad law in a batch fails the whole batch
    with pytest.raises(ValueError, match="positive finite sum"):
        SnrDistribution([[1.0, 2.0], [1.0, 2.0]], [[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SnrDistribution([1.0, 2.0], [[0.5, 0.5]])


def test_from_samples_uniform():
    d = from_samples([0.5, 1.5, 2.5, 3.5])
    assert mean(d) == pytest.approx(2.0)
    assert np.dot(d.weights, np.ones(4)) == 1.0
