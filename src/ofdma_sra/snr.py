"""Fading channels, pilot-aided MMSE estimation, and SNR distributions.

The downlink sees N non-interfering subchannels per user.  User k's
frequency-domain gains are h_k = F g_k with F the first L columns of the
N-point DFT matrix and g_k i.i.d. CN(0, sigma_g^2) taps; the exogenous SNR
is gamma_{n,k} = |h_{n,k}|^2 (unit-variance noise).  With sigma_g^2 = 1/L
the SNRs have unit mean, so the per-subchannel data SNR is P_con/N and the
pilot SNR is p_pilot.

The scheduler never sees gamma directly.  It sees pilot observations
y_k = sqrt(p_pilot) h_k + noise, forms the MMSE estimate of h_k, and works
with the conditional law of gamma given the pilots: |Z|^2 for
Z ~ CN(hhat, sigma_e^2), a (scaled) non-central chi-squared with two
degrees of freedom.  All of those conditional laws are reduced to weighted
atoms (``SnrDistribution``), which makes every expectation downstream a
finite sum and the whole solve deterministic.

Seeding: every randomized operation takes one integer ``seed`` and derives
an internal stream with ``np.random.SeedSequence(seed, spawn_key=(k,))``,
where k = 0 for channel taps, k = 1 for pilot noise, k = 2 for the
random-user baseline.  Channel and pilot draws for the same seed are
therefore reproducible and mutually independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import ncx2

STREAM_CHANNEL = 0
STREAM_PILOT = 1
STREAM_SCHEDULER = 2

DEFAULT_N_ATOMS = 64
NC_COLLAPSE_THRESHOLD = 1e8  # noncentrality above which the law is a spike


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class ChannelConfig:
    """Static description of one OFDMA downlink scenario."""

    n_subchannels: int
    n_users: int
    tap_count: int = 2
    tap_variance: float | None = None  # None -> 1/L, which forces E{gamma}=1
    snr_db: float = 10.0
    pilot_snr_db: float = -10.0

    def __post_init__(self):
        if self.n_subchannels < 1 or self.n_users < 1 or self.tap_count < 1:
            raise ValueError("dimensions must be positive")
        if self.tap_count >= self.n_subchannels:
            raise ValueError("tap count must be smaller than the number of subchannels")
        if self.tap_variance is not None and self.tap_variance <= 0:
            raise ValueError("tap variance must be positive")

    @property
    def sigma_g2(self) -> float:
        return self.tap_variance if self.tap_variance is not None else 1.0 / self.tap_count

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
    cov_diagonal: np.ndarray = field(repr=False, default=None)  # (N,) for diagnostics


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
    diag = np.real(np.diag(cov)).copy()
    return EstimateState(mean=mean, est_error_var=float(max(diag[0], 0.0)),
                         cov_diagonal=diag)


class SnrDistribution:
    """Marginal law of one subchannel SNR as weighted atoms.

    Expectations are exact finite sums over the atoms, which is the whole
    point: every root-find and every oracle downstream sees the same numbers.
    Weights are normalized to sum to one (the heaviest atom absorbs the
    rounding remainder so that the constant-1 expectation is exactly 1.0).
    """

    __slots__ = ("values", "weights")

    def __init__(self, values, weights):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if values.shape != weights.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and weights must be equal-length 1-D arrays")
        if np.any(values < 0.0):
            raise ValueError("SNR atoms must be nonnegative")
        if np.any(weights <= 0.0):
            raise ValueError("atom weights must be positive")
        total = weights.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("atom weights must have a positive finite sum")
        weights = weights / total
        imax = int(np.argmax(weights))
        for _ in range(2):
            weights[imax] += 1.0 - weights.sum()
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("atom weights failed to normalize")
        values.flags.writeable = False
        weights.flags.writeable = False
        self.values = values
        self.weights = weights

    @classmethod
    def point_mass(cls, value: float) -> "SnrDistribution":
        return cls([value], [1.0])

    @property
    def n_atoms(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return float(np.dot(self.weights, self.values))

    def __repr__(self):  # pragma: no cover
        return f"SnrDistribution(n_atoms={self.n_atoms}, mean={self.mean:.4g})"


def conditional_snr_dist(hhat: complex, est_error_var: float,
                         n_atoms: int = DEFAULT_N_ATOMS) -> SnrDistribution:
    """Discretize the law of |Z|^2, Z ~ CN(hhat, sigma_e^2), into atoms.

    Equiprobable quantile bins: [0,1] is split into ``n_atoms`` bins of mass
    1/n_atoms and each bin contributes one atom at its conditional mean.  In
    chi-squared units (gamma = (sigma_e^2/2) X with X non-central chi-squared,
    df=2, nc=2|hhat|^2/sigma_e^2) the bin means follow from the identity
    x f_{2,nc}(x) = 2 f_{4,nc}(x) + nc f_{6,nc}(x), so each conditional mean
    is an exact CDF difference rather than a quadrature.  The atom mean is
    |hhat|^2 + sigma_e^2 by construction.
    """
    return _conditional_snr_dists(np.array([hhat]), est_error_var, n_atoms)[0]


def _conditional_snr_dists(hhat: np.ndarray, est_error_var: float,
                           n_atoms: int) -> list[SnrDistribution]:
    """``conditional_snr_dist`` of every entry of hhat (flattened, C order).

    The laws share est_error_var, so the quantile edges and the bin masses
    of all of them come from one ``ncx2.ppf`` and three ``ncx2.cdf`` calls on
    a (laws, n_atoms + 1) grid; each element is computed exactly as it would
    be on its own.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    if est_error_var < 0.0:
        raise ValueError("estimation error variance must be nonnegative")
    # C pow, as numpy's scalar ** does; the array ** squares, which differs
    # from it in the last bit for about 0.1 % of inputs
    center = np.float_power(np.abs(np.ravel(hhat)), 2.0)
    if est_error_var == 0.0:
        return [SnrDistribution.point_mass(c) for c in center]
    if n_atoms == 1:
        return [SnrDistribution.point_mass(c + est_error_var) for c in center]

    nc = 2.0 * center / est_error_var
    # relative width sqrt(2/nc) < 1.5e-4: the law is a spike and the
    # chi-squared special functions degrade; one atom at the mean keeps
    # both moments within ~2/nc relative error
    spike = nc > NC_COLLAPSE_THRESHOLD
    out = [SnrDistribution.point_mass(c + est_error_var) if sp else None
           for c, sp in zip(center, spike)]
    laws = np.flatnonzero(~spike)
    if laws.size == 0:
        return out
    nc = nc[laws, None]
    probs = np.linspace(0.0, 1.0, n_atoms + 1)
    edges = ncx2.ppf(probs, 2, nc)
    edges[:, 0], edges[:, -1] = 0.0, np.inf
    mass = np.diff(ncx2.cdf(edges, 2, nc), axis=1)
    numer = (2.0 * np.diff(ncx2.cdf(edges, 4, nc), axis=1)
             + nc * np.diff(ncx2.cdf(edges, 6, nc), axis=1))
    good = mass > 0.0
    # degenerate bins (ppf saturation in extreme tails): mean-preserving fallback
    means = np.where(good, numer / np.where(good, mass, 1.0), 2.0 + nc)
    values = 0.5 * est_error_var * np.maximum(means, 0.0)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    for i, row in zip(laws, values):
        out[i] = SnrDistribution(row, weights)
    return out
