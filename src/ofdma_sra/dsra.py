"""Discrete (one-combination-per-subchannel) solver and its gap certificate.

Exact discrete solving is exponential: there are (KM+1)^N feasible
indicators, each needing its own water-filling.

The practical path rides on the continuous solver: its bracket-endpoint
allocations are already discrete, and it hands over their water-fillings
(``fixed_lo`` and ``fixed_hi``).  This module only ranks them, keeping the
one of higher utility (the lower end on a tie).  Whenever the continuous
blend itself lies in the discrete domain (or the budget does not bind) the
discrete problem is solved exactly (given the budget attained there);
otherwise the utility shortfall is bounded by

    (mu* - mu_min) * (P_con - X_min(mu*)),

with X_min the total power of the min-power tie resolution at the optimal
multiplier and, coarser, by (mu_max - mu_min) * P_con.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csra import CsraResult
from .dual import AllocationState, ProblemInstance, _tie_mask, evaluate_mu


@dataclass
class DsraResult:
    """Chosen discrete allocation plus certificates."""

    alloc: AllocationState  # the chosen candidate's water-filled allocation
    utility: float
    gap_bound: float
    exact_from_continuous: bool
    csra: CsraResult        # the continuous solve whose ends were ranked


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


def solve_dsra(inst: ProblemInstance, csra: CsraResult) -> DsraResult:
    """Keep the continuous solve's endpoint water-filling of higher utility."""
    best = max(csra.fixed_lo, csra.fixed_hi, key=lambda fs: fs.utility)
    return DsraResult(
        alloc=best.alloc, utility=best.utility,
        gap_bound=dsra_gap_bound(inst, csra),
        exact_from_continuous=csra.degenerate_blend, csra=csra)
