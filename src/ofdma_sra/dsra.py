"""Discrete (one-combination-per-subchannel) solver and its gap certificate.

Exact discrete solving is exponential: there are (KM+1)^N feasible
indicators, each needing its own water-filling.

The practical path rides on the continuous solver: its bracket-endpoint
allocations are already discrete, so re-solving the (at most two) candidate
indicators for their exact powers and keeping the one with the smaller
fixed-allocation Lagrangian costs two extra water-fillings.  Whenever the
continuous blend itself lies in the discrete domain the discrete problem is
solved exactly (given the budget attained there); otherwise the utility
shortfall is bounded by

    (mu* - mu_min) * (P_con - X_min(mu*)),

with X_min the total power of the min-power tie resolution at the optimal
multiplier and, coarser, by (mu_max - mu_min) * P_con.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csra import CsraResult, default_kappa, solve_csra
from .dual import AllocationState, ProblemInstance, _tie_mask, evaluate_mu
from .waterfill import refinement_kappa, solve_fixed_allocation


@dataclass
class DsraResult:
    """Chosen discrete allocation plus certificates."""

    alloc: AllocationState
    utility: float
    lagrangian: float
    candidate_lagrangians: np.ndarray
    gap_bound: float
    exact_from_continuous: bool
    csra: CsraResult | None = None


def dsra_gap_bound(inst: ProblemInstance, csra: CsraResult) -> float:
    """Utility-gap certificate for the proposed discrete solution.

    The optimal multiplier is proxied by the bracket midpoint.  A pair of
    combinations can tie somewhere inside the bracket only if their score
    difference at the midpoint is below |p_i - p_j| * width / 2 (score
    curves move at rate p* in mu), so ties are detected pairwise against the
    winner with that slack; with no tie anywhere the discrete solution is
    exact and the bound is 0.  The certificate consumer folds in a
    kappa * P_con slack for the midpoint proxy.
    """
    if csra.budget_slack:
        return 0.0
    mu_mid = 0.5 * (csra.mu_lo + csra.mu_hi)
    width = csra.mu_hi - csra.mu_lo
    ev = evaluate_mu(inst, mu_mid)
    n_sub = inst.n_subchannels
    v2 = ev.v.reshape(n_sub, -1)
    p2 = ev.p_star.reshape(n_sub, -1)
    p_win = p2[np.arange(n_sub), v2.argmin(axis=1)][:, None]
    tied = _tie_mask(v2, 0.5 * width * np.abs(p2 - p_win))
    if not np.any(tied.sum(axis=1) > 1):
        return 0.0
    p_tied = np.where(tied, p2, np.inf).min(axis=1)
    x_min_total = float(p_tied[tied.any(axis=1)].sum())
    raw = (mu_mid - csra.mu_min) * (inst.p_con - x_min_total)
    cap = (csra.mu_max - csra.mu_min) * inst.p_con
    return float(min(max(raw, 0.0), cap))


def solve_dsra(inst: ProblemInstance, kappa: float | None = None,
               csra_result: CsraResult | None = None) -> DsraResult:
    """Continuous-solver-guided discrete solve (two candidate water-fillings)."""
    if csra_result is None:
        csra_result = solve_csra(inst, kappa)
    gap = dsra_gap_bound(inst, csra_result)

    if csra_result.budget_slack or csra_result.degenerate_blend:
        key = csra_result.blend.indicator.tobytes()
        fs = csra_result.refined.get(key)
        if fs is None and csra_result.blend.indicator.any():
            refine_k = refinement_kappa(csra_result.mu_min, csra_result.mu_max,
                                        csra_result.mu_hi - csra_result.mu_lo
                                        or default_kappa(inst.p_con))
            fs = solve_fixed_allocation(inst, csra_result.blend.indicator,
                                        refine_k)
        if fs is None:  # empty allocation (degenerate corner)
            return DsraResult(
                alloc=AllocationState.zeros(inst.shape), utility=0.0,
                lagrangian=-csra_result.mu_hi * inst.p_con,
                candidate_lagrangians=np.zeros(0), gap_bound=gap,
                exact_from_continuous=True, csra=csra_result)
        return DsraResult(
            alloc=fs.allocation(), utility=fs.utility,
            lagrangian=fs.lagrangian,
            candidate_lagrangians=np.array([fs.lagrangian]), gap_bound=gap,
            exact_from_continuous=True, csra=csra_result)

    keys = [csra_result.alloc_lo.indicator.tobytes(),
            csra_result.alloc_hi.indicator.tobytes()]
    cands = [csra_result.refined[k] for k in keys]
    lags = np.array([fs.lagrangian for fs in cands])
    # least Lagrangian, then most utility, then the lower end
    best = min(cands, key=lambda fs: (fs.lagrangian, -fs.utility))
    return DsraResult(
        alloc=best.allocation(), utility=best.utility,
        lagrangian=best.lagrangian, candidate_lagrangians=lags,
        gap_bound=gap, exact_from_continuous=False, csra=csra_result)
