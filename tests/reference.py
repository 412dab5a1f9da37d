"""Exhaustive references the solvers are checked against.

None of this is part of the package: enumerating every discrete indicator,
or every point of a power grid, is exponential and only the tests need it.
Expected utilities come from the package's own kernels (``row_values``), so
a reference differs from the solver it checks only in how it searches.
The SNR atoms' reference builds them through ``scipy.stats.ncx2``, which
the package does not import.
"""

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.stats import ncx2

from ofdma_sra import (AllocationState, allocation_utility, baselines,
                       default_kappa, evaluate_mu, mu_bounds,
                       solve_fixed_allocation)
from ofdma_sra.dual import _bisect_budget, _rows
from ofdma_sra.kernels import get_kernels
from ofdma_sra.snr import NC_COLLAPSE_THRESHOLD, SnrDistribution
from ofdma_sra.waterfill import refinement_kappa

BRUTE_FORCE_CAP = 20000
GRID_MAX_ACTIVE = 4
GRID_MAX_POINTS = 2000


def check_allocation(alloc, atol=1e-9, discrete=False):
    """Raise ValueError unless alloc is a feasible allocation state, with
    every share 0 or 1 when discrete."""
    ind, x = alloc.indicator, alloc.actual_power
    if np.any(ind < -atol) or np.any(ind > 1.0 + atol):
        raise ValueError("indicator entries outside [0, 1]")
    if np.any(ind.sum(axis=(1, 2)) > 1.0 + atol):
        raise ValueError("some subchannel is over-shared")
    if np.any(x < -atol):
        raise ValueError("negative actual power")
    if np.any((ind == 0.0) & (np.abs(x) > atol)):
        raise ValueError("power assigned to an unallocated combination")
    if discrete and np.any((ind != 0.0) & (np.abs(ind - 1.0) > atol)):
        raise ValueError("discrete allocation has fractional shares")


def row_values(inst, kernel, row, p):
    """One kernel at flat combination ``row`` of inst, at every power in p."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return getattr(get_kernels(), kernel)(*_rows(inst, np.full(p.size, row)), p)


def indicators(inst, max_hypotheses=BRUTE_FORCE_CAP):
    """Every discrete indicator of inst, as (N,K,M) arrays.

    Lexicographic over the subchannels' choices, "none" first on each.
    Refuses, before yielding anything, when there are more than
    max_hypotheses of them.
    """
    n_sub, n_usr, n_mcs = inst.shape
    n_hyp = (n_usr * n_mcs + 1) ** n_sub
    if n_hyp > max_hypotheses:
        raise ValueError(
            f"enumeration needs {n_hyp} hypotheses; raise max_hypotheses "
            f"(currently {max_hypotheses}) to allow this")

    def indicator(combo):
        ind = np.zeros((n_sub, n_usr * n_mcs))
        for n, c in enumerate(combo):
            if c >= 0:
                ind[n, c] = 1.0
        return ind.reshape(inst.shape)

    return (indicator(combo) for combo in
            itertools.product(range(-1, n_usr * n_mcs), repeat=n_sub))


@dataclass
class BruteForce:
    """The exhaustive discrete optimum and every hypothesis's utility."""

    alloc: AllocationState
    utility: float
    utilities: np.ndarray  # one per indicator, in ``indicators`` order


def brute_force_dsra(inst, kappa=None, max_hypotheses=BRUTE_FORCE_CAP):
    """Exhaustive exact discrete solve; ranking key is achieved utility.

    Water-fills every indicator and keeps the first utility maximum.
    """
    if kappa is None:
        kappa = default_kappa(inst.p_con)
    refine_k = refinement_kappa(*mu_bounds(inst), kappa)
    solves = [solve_fixed_allocation(inst, ind, refine_k)
              for ind in indicators(inst, max_hypotheses)]
    best = max(solves, key=lambda fs: fs.utility)
    return BruteForce(alloc=best.alloc, utility=best.utility,
                      utilities=np.array([fs.utility for fs in solves]))


def exhaustive_lagrangian_min(inst, mu, max_hypotheses=BRUTE_FORCE_CAP):
    """Minimize the Lagrangian at mu over every discrete indicator.

    Per-combination powers come from the stationarity root at mu, so for a
    candidate indicator the Lagrangian is -mu*P_con plus the sum of the
    selected combinations' scores.  Returns (AllocationState, actual powers,
    Lagrangian value).
    """
    ev = evaluate_mu(inst, mu)
    best_l, best = np.inf, None
    for ind in indicators(inst, max_hypotheses):
        l_val = -mu * inst.p_con + float(np.sum(ev.v[ind > 0.0]))
        if l_val < best_l:
            best_l, best = l_val, ind
    x = best * ev.p_star
    return AllocationState(best, x), x, best_l


def grid_power_oracle(inst, indicator, grid_points):
    """Best utility of a fixed discrete allocation over a power grid.

    Powers live on the lattice {0, d, 2d, ..., P_con}, d = P_con/grid_points,
    subject to the shared budget; the search is exact dynamic programming
    over the spent grid units.  Returns (powers (N,K,M), utility).
    """
    active = np.flatnonzero(np.asarray(indicator, dtype=float) > 0.0)
    if active.size > GRID_MAX_ACTIVE:
        raise ValueError(f"grid oracle limited to {GRID_MAX_ACTIVE} active "
                         f"combinations, got {active.size}")
    if not (1 <= grid_points <= GRID_MAX_POINTS):
        raise ValueError(f"grid_points must be in [1, {GRID_MAX_POINTS}]")

    powers = np.zeros(inst.shape)
    if not active.size:
        return powers, 0.0

    levels = np.linspace(0.0, inst.p_con, grid_points + 1)
    per_combo = [row_values(inst, "expected_utilities", row, levels)
                 for row in active]

    # best[t] = max utility with exactly t grid units spent on the
    # combinations seen so far
    best = per_combo[0].copy()
    choices = []
    for eu in per_combo[1:]:
        new = np.full_like(best, -np.inf)
        choice = np.zeros(best.size, dtype=np.int64)
        for s in range(best.size):
            cand = best[:best.size - s] + eu[s]
            seg = new[s:]
            upd = cand > seg
            seg[upd] = cand[upd]
            choice[s:][upd] = s
        best = new
        choices.append(choice)

    t = int(np.argmax(best))
    utility = float(best[t])
    spent = []
    for choice in reversed(choices):
        s = int(choice[t])
        spent.append(s)
        t -= s
    spent.append(t)
    powers.ravel()[active] = levels[spent[::-1]]
    return powers, utility


def point_mass_waterfill(gamma, a, b, r, p_con):
    """Exact goodput water-filling of point-mass rows: (powers, level mu).

    Row c spends p_c = max(0, log(a b r gamma_c / mu) / (b gamma_c)), and
    the level mu makes the rows spend p_con.  Rows switch on in the order
    of their activation thresholds h_c = a b r gamma_c.  With the k highest
    on, sum p = p_con gives log mu = (sum log(h_c)/s_c - p_con) / sum 1/s_c,
    s_c = b gamma_c; k is the first count whose level is at or above the
    next threshold.  No root-finder and no bisection.
    """
    gamma, a, b, r = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                           for x in (gamma, a, b, r)))
    h, s = a * b * r * gamma, b * gamma
    order = np.argsort(-h, kind="stable")
    for k in range(1, h.size + 1):
        on = order[:k]
        log_mu = (np.sum(np.log(h[on]) / s[on]) - p_con) / np.sum(1.0 / s[on])
        if k == h.size or log_mu >= np.log(h[order[k]]):
            break
    return np.maximum(0.0, (np.log(h) - log_mu) / s), float(np.exp(log_mu))


def iteration_bound(mu_min, mu_max, kappa):
    """Worst-case number of mu-updates of a bisection to bracket width kappa."""
    if mu_max - mu_min <= kappa:
        return 0
    return int(np.ceil(np.log2((mu_max - mu_min) / kappa)))


def lagrangian(inst, mu, alloc):
    """L(mu, I, x) = sum_I I*F(I, x) + (sum x - P_con) * mu."""
    return (-allocation_utility(inst, alloc)
            + (alloc.total_power - inst.p_con) * mu)


def indicator_cost(inst, share, actual_power, row=0):
    """share * F(share, x) for one combination: the perspective-style term.

    F is -E{U(g(x/share, gamma))} for share > 0 and 0 at share = 0; the
    product is jointly convex in (share, x), which the property tests check.
    """
    if share <= 0.0:
        return 0.0
    eu = row_values(inst, "expected_utilities", row, actual_power / share)
    return -share * float(eu[0])


def bisection_mids(inst):
    """Every midpoint of the CSRA budget bisection run to a 2^-40 bracket."""
    mu_min, mu_max = mu_bounds(inst)
    return _bisect_budget(partial(evaluate_mu, inst),
                          lambda ev: ev.alloc_min.total_power, inst.p_con,
                          mu_min, mu_max, (mu_max - mu_min) * 2.0 ** -40).mids


def traced_subgradient(inst, n_updates, scale=1.0):
    """``subgradient_baseline`` and what it visited: (allocation, mus,
    min-power totals), one entry per update, recorded by wrapping the
    ``evaluate_mu`` the baseline calls."""
    evaluate = baselines.evaluate_mu
    steps = []

    def record(instance, mu, *ends):
        ev = evaluate(instance, mu, *ends)
        steps.append((mu, ev.alloc_min.total_power))
        return ev

    baselines.evaluate_mu = record
    try:
        alloc = baselines.subgradient_baseline(inst, n_updates, scale)
    finally:
        baselines.evaluate_mu = evaluate
    mus, totals = np.array(steps).T
    return alloc, mus, totals


def dense_mmse_oracle(c, real, seed):
    """Direct dense-matrix evaluation of the conditional-Gaussian formulas:
    the MMSE mean and the diagonal of cov(h_k | pilots), whose constancy
    lets ``mmse_estimate`` return one ``est_error_var``."""
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


def ncx2_snr_dist(hhat, est_error_var, n_atoms):
    """``conditional_snr_dist`` built through ``scipy.stats.ncx2``.

    One ``ncx2.ppf`` and three ``ncx2.cdf`` calls on a (laws, n_atoms + 1)
    grid, with the package's point masses, spikes and degenerate-bin
    fallback.  The package calls the special functions behind ``ncx2``
    directly and must give these bits.
    """
    shape = np.shape(hhat)
    center = np.float_power(np.abs(np.ravel(hhat)), 2.0)
    if est_error_var == 0.0:
        return SnrDistribution.point_mass(center.reshape(shape))
    nc = 2.0 * center / est_error_var
    spike = nc > NC_COLLAPSE_THRESHOLD
    if n_atoms == 1 or np.all(spike):
        return SnrDistribution.point_mass((center + est_error_var).reshape(shape))
    laws = ~spike
    nc = nc[laws, None]
    probs = np.linspace(0.0, 1.0, n_atoms + 1)
    edges = ncx2.ppf(probs, 2, nc)
    edges[:, 0], edges[:, -1] = 0.0, np.inf
    mass = np.diff(ncx2.cdf(edges, 2, nc), axis=1)
    numer = (2.0 * np.diff(ncx2.cdf(edges, 4, nc), axis=1)
             + nc * np.diff(ncx2.cdf(edges, 6, nc), axis=1))
    good = mass > 0.0
    means = np.where(good, numer / np.where(good, mass, 1.0), 2.0 + nc)
    values = np.zeros((center.size, n_atoms))
    weights = np.zeros((center.size, n_atoms))
    values[spike, 0] = center[spike] + est_error_var
    weights[spike, 0] = 1.0
    values[laws] = 0.5 * est_error_var * np.maximum(means, 0.0)
    weights[laws] = 1.0 / n_atoms
    return SnrDistribution(values.reshape(shape + (n_atoms,)),
                           weights.reshape(shape + (n_atoms,)))
