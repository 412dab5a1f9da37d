"""Continuous (subchannel-sharing) solver: bisection over the power price.

The total optimal power X*(mu) is nonincreasing, so bisection over
[mu_min, mu_max] narrows a bracket containing the multiplier where the
budget binds.  The endpoint allocations (min-power tie rule) are combined
with the weight lam that meets the budget exactly; when the two endpoint
allocations coincide, or lam is 0 or 1, the combination is itself a valid
one-combination-per-subchannel allocation.

The utility of the returned solution sits within (mu_hi - mu_lo) * P_con of
the continuous optimum, so the bracket width kappa is a tunable optimality
certificate.  After the blend is formed, the endpoint indicators are also
re-solved to their fixed-allocation optima (cheap, one bisection over at
most N active combinations each) and the best feasible candidate is
returned; this never weakens the certificate -- every candidate is feasible
and meets the budget -- and it guarantees that the discrete solver built on
top can never report a utility above the continuous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dual import (AllocationState, ProblemInstance, _bisect_budget,
                   _blend_weight, allocation_utility, evaluate_mu, mu_bounds)
from .waterfill import FixedAllocationSolve, refinement_kappa, solve_fixed_allocation

DEFAULT_KAPPA_SCALE = 0.3  # default bracket width is 0.3 / P_con


def default_kappa(p_con: float) -> float:
    return DEFAULT_KAPPA_SCALE / p_con


@dataclass
class CsraResult:
    """Bracket, blend and certificates from the continuous solve."""

    mu_min: float
    mu_max: float
    mu_lo: float
    mu_hi: float
    alloc_lo: AllocationState
    alloc_hi: AllocationState
    lam: float
    lam_raw: float
    blend: AllocationState
    blend_utility: float
    alloc: AllocationState      # best feasible candidate (blend or refined endpoint)
    utility: float              # expected utility of `alloc`
    gap_bound: float            # (mu_hi - mu_lo) * P_con
    iterations: int             # bisection mu-updates
    budget_slack: bool
    degenerate_blend: bool      # blend lies in the discrete domain
    refined: dict[bytes, FixedAllocationSolve] = field(repr=False,
                                                       default_factory=dict)


def solve_csra(inst: ProblemInstance, kappa: float | None = None) -> CsraResult:
    """Bisection solve of the subchannel-sharing problem to bracket width kappa."""
    if kappa is None:
        kappa = default_kappa(inst.p_con)
    if kappa <= 0.0:
        raise ValueError("bracket width must be positive")

    mu_min, mu_max = mu_bounds(inst)
    ev_lo = evaluate_mu(inst, mu_min)

    if ev_lo.total_power_min < inst.p_con * (1.0 - 1e-6):
        # Budget never binds: defensive branch, unreachable for the
        # implemented utility family (every active combination already
        # asks for >= P_con at mu_min; the tolerance keeps root-find noise
        # at the exactly-binding corner out of this branch).
        alloc = ev_lo.alloc_min
        util = allocation_utility(inst, alloc)
        return CsraResult(
            mu_min=mu_min, mu_max=mu_max, mu_lo=mu_min, mu_hi=mu_min,
            alloc_lo=alloc, alloc_hi=alloc, lam=0.0, lam_raw=0.0,
            blend=AllocationState(alloc.indicator.copy(),
                                  alloc.actual_power.copy(), discrete=True),
            blend_utility=util, alloc=alloc, utility=util, gap_bound=0.0,
            iterations=0, budget_slack=True, degenerate_blend=True)

    evaluate = partial(evaluate_mu, inst)
    br = _bisect_budget(evaluate, lambda ev: ev.total_power_min >= inst.p_con,
                        mu_min, mu_max, kappa, at_lo=ev_lo)
    lam_raw, lam = _blend_weight(br, evaluate, lambda ev: ev.total_power_min,
                                 inst.p_con)
    mu_lo, mu_hi = br.lo, br.hi
    alloc_lo, alloc_hi = br.at_lo.alloc_min, br.at_hi.alloc_min
    degenerate = (lam in (0.0, 1.0)
                  or bool(np.array_equal(alloc_lo.indicator, alloc_hi.indicator)))
    blend = AllocationState(
        lam * alloc_hi.indicator + (1.0 - lam) * alloc_lo.indicator,
        lam * alloc_hi.actual_power + (1.0 - lam) * alloc_lo.actual_power,
        discrete=degenerate)
    blend_utility = allocation_utility(inst, blend)

    refine_k = refinement_kappa(mu_min, mu_max, kappa)
    refined: dict[bytes, FixedAllocationSolve] = {}
    for cand in (alloc_lo, alloc_hi):
        key = cand.indicator.tobytes()
        if key not in refined and cand.indicator.any():
            refined[key] = solve_fixed_allocation(inst, cand.indicator, refine_k)

    best_alloc, best_util = blend, blend_utility
    for fs in refined.values():
        if fs.utility > best_util:
            best_util, best_alloc = fs.utility, fs.allocation()

    return CsraResult(
        mu_min=mu_min, mu_max=mu_max, mu_lo=mu_lo, mu_hi=mu_hi,
        alloc_lo=alloc_lo, alloc_hi=alloc_hi, lam=lam, lam_raw=lam_raw,
        blend=blend, blend_utility=blend_utility,
        alloc=best_alloc, utility=best_util,
        gap_bound=(mu_hi - mu_lo) * inst.p_con, iterations=len(br.mids),
        budget_slack=False, degenerate_blend=degenerate, refined=refined)


def iteration_bound(mu_min: float, mu_max: float, kappa: float) -> int:
    """Worst-case number of mu-updates for the bisection."""
    if mu_max - mu_min <= kappa:
        return 0
    return int(np.ceil(np.log2((mu_max - mu_min) / kappa)))
