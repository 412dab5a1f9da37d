"""Exhaustive references the solvers are checked against.

None of this is part of the package: enumerating every discrete indicator,
or every point of a power grid, is exponential and only the tests need it.
Expected utilities come from the package's own kernels (``row_values``), so
a reference differs from the solver it checks only in how it searches.
"""

import itertools
from functools import partial

import numpy as np

from ofdma_sra import (AllocationState, DsraResult, allocation_utility,
                       default_kappa, evaluate_mu, mu_bounds,
                       solve_fixed_allocation)
from ofdma_sra.dual import _bisect_budget, _rows
from ofdma_sra.kernels import get_kernels
from ofdma_sra.waterfill import refinement_kappa

BRUTE_FORCE_CAP = 20000
GRID_MAX_ACTIVE = 4
GRID_MAX_POINTS = 2000


def check_allocation(alloc, atol=1e-9):
    """Raise ValueError unless alloc is a feasible allocation state."""
    ind, x = alloc.indicator, alloc.actual_power
    if np.any(ind < -atol) or np.any(ind > 1.0 + atol):
        raise ValueError("indicator entries outside [0, 1]")
    if np.any(ind.sum(axis=(1, 2)) > 1.0 + atol):
        raise ValueError("some subchannel is over-shared")
    if np.any(x < -atol):
        raise ValueError("negative actual power")
    if np.any((ind == 0.0) & (np.abs(x) > atol)):
        raise ValueError("power assigned to an unallocated combination")
    if alloc.discrete and np.any((ind != 0.0) & (np.abs(ind - 1.0) > atol)):
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


def brute_force_dsra(inst, kappa=None, max_hypotheses=BRUTE_FORCE_CAP):
    """Exhaustive exact discrete solve; ranking key is achieved utility.

    Water-fills every indicator and keeps the first utility maximum.  The
    Lagrangian of every hypothesis is in ``candidate_lagrangians``.
    """
    if kappa is None:
        kappa = default_kappa(inst.p_con)
    refine_k = refinement_kappa(*mu_bounds(inst), kappa)
    solves = [solve_fixed_allocation(inst, ind, refine_k)
              for ind in indicators(inst, max_hypotheses)]
    best = max(solves, key=lambda fs: fs.utility)
    return DsraResult(
        alloc=best.allocation(), utility=best.utility,
        lagrangian=best.lagrangian,
        candidate_lagrangians=np.array([fs.lagrangian for fs in solves]),
        gap_bound=0.0, exact_from_continuous=False)


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
    return AllocationState(best, x, discrete=True), x, best_l


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
    """Every midpoint of the CSRA budget bisection run to a 2^-40 bracket.

    A bracket of 0 would never close: at a 1-ulp bracket the midpoint
    rounds to an end.
    """
    mu_min, mu_max = mu_bounds(inst)
    return _bisect_budget(partial(evaluate_mu, inst),
                          lambda ev: ev.total_power_min, inst.p_con,
                          mu_min, mu_max, (mu_max - mu_min) * 2.0 ** -40).mids
