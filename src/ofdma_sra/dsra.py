"""Discrete (one-combination-per-subchannel) solver and its gap certificate.

Exact discrete solving is exponential: there are (KM+1)^N feasible
indicators, each needing its own water-filling.

The practical path rides on the continuous solver: its bracket-endpoint
allocations are already discrete, and it hands over their water-fillings
(``fixed_lo`` and ``fixed_hi``).  This module only ranks them, keeping the
one with the smaller fixed-allocation Lagrangian.  Whenever the continuous
blend itself lies in the discrete domain (or the budget does not bind) the
blend's own end is the only candidate and the discrete problem is solved
exactly (given the budget attained there); otherwise the utility shortfall
is bounded by

    (mu* - mu_min) * (P_con - X_min(mu*)),

with X_min the total power of the min-power tie resolution at the optimal
multiplier and, coarser, by (mu_max - mu_min) * P_con.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csra import CsraResult, solve_csra
from .dual import AllocationState, ProblemInstance, _tie_mask, evaluate_mu


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
    """Rank the continuous solver's endpoint water-fillings."""
    if csra_result is None:
        csra_result = solve_csra(inst, kappa)
    res = csra_result
    exact = res.degenerate_blend  # also whenever the budget is slack
    if exact:
        cands = [res.fixed_hi if res.lam == 1.0 else res.fixed_lo]
    else:
        cands = [res.fixed_lo, res.fixed_hi]
    # least Lagrangian, then most utility, then the lower end
    best = min(cands, key=lambda fs: (fs.lagrangian, -fs.utility))
    return DsraResult(
        alloc=best.allocation(), utility=best.utility,
        lagrangian=best.lagrangian,
        candidate_lagrangians=np.array([fs.lagrangian for fs in cands]),
        gap_bound=dsra_gap_bound(inst, res), exact_from_continuous=exact,
        csra=res)
