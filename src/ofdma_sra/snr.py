"""Fading channels, pilot-aided MMSE estimation, and SNR distributions.

The downlink sees N non-interfering subchannels per user.  User k's
frequency-domain gains are h_k = F g_k with F the first L columns of the
N-point DFT matrix and g_k i.i.d. CN(0, sigma_g^2) taps; the exogenous SNR
is gamma_{n,k} = |h_{n,k}|^2 (unit-variance noise).  sigma_g^2 is fixed at
1/L, so the SNRs have unit mean, the per-subchannel data SNR is P_con/N and
the pilot SNR is p_pilot.  (Any other tap variance is the same problem with
both dB values shifted by 10 log10(L sigma_g^2).)

The scheduler never sees gamma directly.  It sees pilot observations
y_k = sqrt(p_pilot) h_k + noise, forms the MMSE estimate of h_k, and works
with the conditional law of gamma given the pilots: |Z|^2 for
Z ~ CN(hhat, sigma_e^2), a (scaled) non-central chi-squared with two
degrees of freedom.  All of those conditional laws are reduced to weighted
atoms, one ``SnrDistribution`` batch for a whole (N, K) grid, which makes
every expectation downstream a finite sum and the whole solve deterministic.
Each atom is the exact conditional mean of one bin of the law, weighted by
the bin's exact mass, with bin edges near the law's quantiles at i/n; the
edges of a non-central law come from a closed-form approximation and a few
Newton steps on its CDF, not from a quantile function
(``conditional_snr_dist``).  The atoms call ``scipy.special`` directly, not
``scipy.stats``.

Seeding: every randomized operation takes one integer ``seed`` and derives
an internal stream with ``np.random.SeedSequence(seed, spawn_key=(k,))``,
where k = 0 for channel taps, k = 1 for pilot noise, k = 2 for the
random-user baseline.  Channel and pilot draws for the same seed are
therefore reproducible and mutually independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, chndtr, gammaincinv, i0e, i1e, ndtri

STREAM_CHANNEL = 0
STREAM_PILOT = 1
STREAM_SCHEDULER = 2

NC_COLLAPSE_THRESHOLD = 1e8  # noncentrality above which the law is a spike
EDGE_TOL = 1e-6  # a bin edge's CDF may miss its level by EDGE_TOL / n_atoms
NEWTON_STEPS = 4  # at most, per edge


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class ChannelConfig:
    """Static description of one OFDMA downlink scenario."""

    n_subchannels: int
    n_users: int
    tap_count: int = 2
    snr_db: float = 10.0
    pilot_snr_db: float = -10.0

    def __post_init__(self):
        if self.n_subchannels < 1 or self.n_users < 1 or self.tap_count < 1:
            raise ValueError("dimensions must be positive")
        if self.tap_count >= self.n_subchannels:
            raise ValueError("tap count must be smaller than the number of subchannels")
        try:  # a pilot power of 0, no pilot, is allowed
            finite = 0.0 < self.p_con < np.inf and self.pilot_power < np.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("snr_db must give a positive, finite power budget "
                             "and pilot_snr_db a finite pilot power")

    @property
    def sigma_g2(self) -> float:
        return 1.0 / self.tap_count

    @property
    def p_con(self) -> float:
        """Sum-power budget implied by the average per-subchannel SNR."""
        return self.n_subchannels * 10.0 ** (self.snr_db / 10.0)

    @property
    def pilot_power(self) -> float:
        return 10.0 ** (self.pilot_snr_db / 10.0)

    def dft_columns(self) -> np.ndarray:
        """First L columns of the N-point DFT matrix (unit-modulus entries)."""
        n = np.arange(self.n_subchannels)[:, None]
        l = np.arange(self.tap_count)[None, :]
        return np.exp(-2j * np.pi * n * l / self.n_subchannels)


@dataclass(frozen=True)
class ChannelRealization:
    taps: np.ndarray        # (L, K) complex
    freq_gains: np.ndarray  # (N, K) complex, = F @ taps
    true_snr: np.ndarray    # (N, K) = |freq_gains|^2


@dataclass(frozen=True)
class EstimateState:
    mean: np.ndarray        # (N, K) complex, MMSE estimate of freq_gains
    est_error_var: float    # common diagonal of cov(h_k | pilots)


def draw_channel(cfg: ChannelConfig, seed: int) -> ChannelRealization:
    """Draw i.i.d. CN(0, sigma_g^2) taps and expand to per-subchannel SNRs."""
    rng = _rng(seed, STREAM_CHANNEL)
    scale = np.sqrt(cfg.sigma_g2 / 2.0)
    shape = (cfg.tap_count, cfg.n_users)
    taps = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    freq = cfg.dft_columns() @ taps
    return ChannelRealization(taps=taps, freq_gains=freq, true_snr=np.abs(freq) ** 2)


def mmse_estimate(cfg: ChannelConfig, realization: ChannelRealization,
                  seed: int) -> EstimateState:
    """Pilot-aided MMSE estimate of the frequency-domain gains.

    Observes y_k = sqrt(p_pilot) h_k + noise with unit-variance white noise
    and applies the jointly-Gaussian conditioning

        E{h_k | y_k}   = R_hy R_yy^{-1} y_k,
        cov(h_k | y_k) = R_hh - R_hy R_yy^{-1} R_yh,

    with R_hh = sigma_g^2 F F^H, R_hy = sqrt(p_pilot) R_hh and
    R_yy = p_pilot R_hh + I.  The conditional covariance has a constant
    diagonal; that scalar is returned as ``est_error_var``.
    """
    rng = _rng(seed, STREAM_PILOT)
    n = cfg.n_subchannels
    f = cfg.dft_columns()
    r_hh = cfg.sigma_g2 * (f @ f.conj().T)
    sqrt_pp = np.sqrt(cfg.pilot_power)
    r_hy = sqrt_pp * r_hh
    r_yy = cfg.pilot_power * r_hh + np.eye(n)

    noise = (rng.standard_normal((n, cfg.n_users))
             + 1j * rng.standard_normal((n, cfg.n_users))) / np.sqrt(2.0)
    obs = sqrt_pp * realization.freq_gains + noise

    sol = np.linalg.solve(r_yy, obs)
    resid = np.linalg.norm(r_yy @ sol - obs)
    if resid > 1e-8 * max(np.linalg.norm(obs), 1.0):
        raise ArithmeticError(f"pilot covariance solve residual {resid:.3e} too large")
    mean = r_hy @ sol

    cov = r_hh - r_hy @ np.linalg.solve(r_yy, r_hy.conj().T)
    return EstimateState(mean=mean,
                         est_error_var=float(max(np.real(cov[0, 0]), 0.0)))


class SnrDistribution:
    """A batch of subchannel SNR laws as weighted atoms: ``values`` and
    ``weights`` have shape batch + (atoms,), one law along the last axis.

    Expectations are exact finite sums over the atoms, so every root-find and
    every oracle downstream sees the same numbers.  Zero weights pad a law
    with fewer atoms.  Each law's weights are divided by their total, then
    its heaviest atom absorbs the rounding remainder (twice) so that the
    constant-1 expectation is exactly 1.0; the bits do not depend on the batch.
    """

    __slots__ = ("values", "weights")

    def __init__(self, values, weights):
        values = np.array(values, dtype=float, ndmin=1)
        weights = np.array(weights, dtype=float, ndmin=1, order="C")
        if values.shape != weights.shape or values.size == 0:
            raise ValueError("values and weights need one nonempty shape")
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise ValueError("SNR atoms must be finite and nonnegative")
        if not np.all(weights >= 0.0):
            raise ValueError("atom weights must be nonnegative")
        laws = weights.reshape(-1, weights.shape[-1])  # C order: a view
        total = _law_sums(laws)
        if not np.all(np.isfinite(total) & (total > 0.0)):
            raise ValueError("atom weights must have a positive finite sum")
        laws /= total[:, None]
        rows, heaviest = np.arange(len(laws)), laws.argmax(axis=1)
        for _ in range(2):
            laws[rows, heaviest] += 1.0 - _law_sums(laws)
        if np.any(abs(_law_sums(laws) - 1.0) > 1e-12):
            raise ValueError("atom weights failed to normalize")
        values.flags.writeable = False
        weights.flags.writeable = False
        self.values = values
        self.weights = weights

    @classmethod
    def point_mass(cls, values) -> "SnrDistribution":
        """One atom of weight 1 at each entry of values (batch = its shape)."""
        values = np.asarray(values, dtype=float)[..., None]
        return cls(values, np.ones_like(values))

    @property
    def n_atoms(self) -> int:
        return self.values.shape[-1]


def _law_sums(laws: np.ndarray) -> np.ndarray:
    """Each row's sum up to its last nonzero entry, summed as that row alone:
    numpy's pairwise sum groups terms by row length, so zero padding would
    move the last bits."""
    length = laws.shape[1] - np.argmax(laws[:, ::-1] != 0.0, axis=1)
    sums = np.empty(len(laws))
    for n in np.unique(length):
        sums[length == n] = laws[length == n, :n].sum(axis=1)
    return sums


def _sankaran_edges(probs, nc):
    """Sankaran's closed-form quantiles of the df=2 non-central chi-squared
    (Biometrika 46, 1959): ((X/(2+nc))^h - mu)/sd is near standard normal."""
    h = 1.0 - (2.0 / 3.0) * (2.0 + nc) * (2.0 + 3.0 * nc) / (2.0 + 2.0 * nc) ** 2
    p = (2.0 + 2.0 * nc) / (2.0 + nc) ** 2
    m = (h - 1.0) * (1.0 - 3.0 * h)
    mu = 1.0 + h * p * (h - 1.0 - (1.0 - 0.5 * h) * m * p)
    sd = h * np.sqrt(2.0 * p) * (1.0 + 0.5 * m * p)
    # the normal's lower tail reaches below zero past ~n = 260 atoms
    return (2.0 + nc) * np.maximum(mu + sd * ndtri(probs), 0.0) ** (1.0 / h)


def _half_density(x, nc):
    """exp(-(sqrt x - sqrt nc)^2 / 2) / 2 and z = sqrt(nc x): the df=2
    non-central chi-squared density at x is that times i0e(z)."""
    return 0.5 * np.exp(-0.5 * (np.sqrt(x) - np.sqrt(nc)) ** 2), np.sqrt(nc * x)


def _noncentral_edges(probs, nc):
    """Edges near the df=2 quantiles at probs (interior levels, ascending) of
    each law nc (laws, 1), and the CDF ``chndtr`` gives at them.

    Safeguarded Newton from Sankaran's edges: an edge steps while its CDF
    is more than EDGE_TOL / n off its level, at most NEWTON_STEPS times; a
    step that leaves the edge's bracket (lo, hi) bisects it, and while hi
    is infinite no step goes past 2 lo + 2 + nc (twice the bracket's lower
    end plus the law's mean).  From Sankaran's edges every edge met the
    tolerance within 3 steps up to 1024 atoms, and 4 up to 8192.  Edges
    within the tolerance of levels 1/n apart are strictly increasing.
    """
    x = _sankaran_edges(probs, nc)
    cdf = chndtr(x, 2.0, nc)
    levels = np.broadcast_to(probs, x.shape)
    nc = np.broadcast_to(nc, x.shape)
    lo, hi = np.zeros_like(x), np.full_like(x, np.inf)
    tol = EDGE_TOL / (probs.size + 1)
    for _ in range(NEWTON_STEPS):
        step = np.abs(cdf - levels) > tol
        if not step.any():
            break
        xs, ncs = x[step], nc[step]
        err = cdf[step] - levels[step]
        lo[step] = l = np.where(err < 0.0, xs, lo[step])
        hi[step] = h = np.where(err > 0.0, xs, hi[step])
        e, z = _half_density(xs, ncs)
        with np.errstate(divide="ignore"):  # the density can underflow
            new = xs - err / (e * i0e(z))
        new = np.where((new > l) & (new < h), new, 0.5 * (l + h))
        cap = np.where(np.isinf(h), 2.0 * l + 2.0 + ncs, h)
        x[step] = xs = np.minimum(new, cap)
        cdf[step] = chndtr(xs, 2.0, ncs)
    return x, cdf


def conditional_snr_dist(hhat, est_error_var: float,
                         n_atoms: int) -> SnrDistribution:
    """Discretize the law of |Z|^2, Z ~ CN(hhat, sigma_e^2) into atoms, for
    each entry of hhat: the batch has hhat's shape.

    Each law is cut into ``n_atoms`` bins and each bin contributes one atom
    at its exact conditional mean, weighted by its exact mass, so the atom
    mean is |hhat|^2 + sigma_e^2.  In chi-squared units gamma =
    (sigma_e^2/2) X, with X non-central chi-squared, df=2,
    nc=2|hhat|^2/sigma_e^2.

    A non-central law's bin edges are near its quantiles at i/n_atoms:
    Sankaran's closed-form edges, then safeguarded Newton steps on the df=2
    CDF F (``chndtr``) for the edges more than EDGE_TOL/n_atoms off their
    level.  The weights are the bins' masses dF from the last ``chndtr`` at
    each edge.  The bin means need no other CDF: from x f_{2,nc} =
    2 f_{4,nc} + nc f_{6,nc}, F_{k+2} = F_k - 2 f_{k+2} and
    I_2(z) = I_0(z) - 2 I_1(z)/z, a bin's first moment is
    (2+nc) dF - 2 d[e (z i1e(z) + x i0e(z))], with z = sqrt(nc x) and
    e = exp(-(sqrt x - sqrt nc)^2/2)/2.

    A central law (nc = 0: the prior, or no pilot; also a subnormal nc)
    keeps equiprobable bins, weights 1/n_atoms, from the chi-squared
    ``gammaincinv`` and ``chdtr``: the bits of ``scipy.stats.ncx2``.
    A bin without mass falls back to the law's mean, with no weight on a
    non-central law.  A spike law is atom 0 with weight 1 and zero padding;
    a batch of point masses only has one atom per law.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    if est_error_var < 0.0:
        raise ValueError("estimation error variance must be nonnegative")
    shape = np.shape(hhat)
    # |hhat|^2 by C pow, not by squaring: the two differ in the last bit for
    # about 0.1 % of inputs, and the pinned outputs use pow
    center = np.float_power(np.abs(np.ravel(hhat)), 2.0)
    if est_error_var == 0.0:
        return SnrDistribution.point_mass(center.reshape(shape))
    # relative width sqrt(2/nc) < 1.5e-4: the law is a spike and the
    # chi-squared special functions degrade; one atom at the mean keeps
    # both moments within ~2/nc relative error
    nc = 2.0 * center / est_error_var
    spike = nc > NC_COLLAPSE_THRESHOLD
    if n_atoms == 1 or np.all(spike):
        return SnrDistribution.point_mass((center + est_error_var).reshape(shape))

    laws = ~spike
    nc = nc[laws, None]
    # prior or no pilot: chndtr(x, df, 0) is off by ulps, and by percents at
    # a subnormal nc, which moves no digit of the law's mean; each branch is
    # evaluated on its own laws only
    central = nc[:, 0] < np.finfo(float).tiny
    other = ~central
    probs = np.linspace(0.0, 1.0, n_atoms + 1)
    mass = np.empty((nc.size, n_atoms))
    numer = np.empty_like(mass)
    edges = 2.0 * gammaincinv(1.0, probs)
    mass[central] = np.diff(chdtr(2.0, edges))
    numer[central] = 2.0 * np.diff(chdtr(4.0, edges))
    x, cdf = _noncentral_edges(probs[1:-1], nc[other])
    e, z = _half_density(x, nc[other])
    tail = e * (z * i1e(z) + x * i0e(z))  # 0 at the edges 0 and inf
    pad = ((0, 0), (1, 1))
    mass[other] = np.diff(np.pad(cdf, pad, constant_values=(0.0, 1.0)))
    numer[other] = ((2.0 + nc[other]) * mass[other]
                    - 2.0 * np.diff(np.pad(tail, pad)))
    # a bin without mass (coincident edges): mean-preserving fallback
    good = mass > 0.0
    means = np.where(good, numer / np.where(good, mass, 1.0), 2.0 + nc)
    values = np.zeros((center.size, n_atoms))
    weights = np.zeros((center.size, n_atoms))
    values[spike, 0] = center[spike] + est_error_var
    weights[spike, 0] = 1.0
    values[laws] = 0.5 * est_error_var * np.maximum(means, 0.0)
    weights[laws] = np.where(central[:, None], 1.0 / n_atoms,
                             np.where(good, mass, 0.0))
    return SnrDistribution(values.reshape(shape + (n_atoms,)),
                           weights.reshape(shape + (n_atoms,)))
