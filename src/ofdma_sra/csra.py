"""Continuous (subchannel-sharing) solver: bisection over the power price.

The total optimal power X*(mu) is nonincreasing, so bisection over
[mu_min, mu_max] narrows a bracket containing the multiplier where the
budget binds; a midpoint binds when its min-power total reaches P_con.
Ends are evaluated lazily: only an end that never moved is evaluated, once,
after the bisection.  The endpoint allocations (min-power tie rule) are
combined with the weight lam that meets the budget exactly; when the two
endpoint allocations coincide, or lam is 0 or 1, the combination is itself
a valid one-combination-per-subchannel allocation.  If the lower end never
moved and spends less than P_con, the budget is slack: the bracket
collapses to [mu_min, mu_min] with lam = 0 and no midpoints.

The utility of the returned solution sits within (mu_hi - mu_lo) * P_con of
the continuous optimum, so the bracket width kappa is a tunable optimality
certificate.  Both endpoint indicators, empty ones included, are also
water-filled to their fixed-allocation optima (one bisection over at most N
active combinations each) into ``fixed_lo`` and ``fixed_hi``.  The best
feasible of the blend and those water-fillings is returned; this never
weakens the certificate -- every candidate is feasible and meets the budget
-- and the discrete solver, which only ranks ``fixed_lo`` and ``fixed_hi``,
can never report a utility above the continuous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dual import (AllocationState, ProblemInstance, _bisect_budget, _Bracket,
                   allocation_utility, evaluate_mu, mu_bounds)
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
    blend: AllocationState
    blend_utility: float
    alloc: AllocationState      # best feasible candidate (blend or fixed_lo/hi)
    utility: float              # expected utility of `alloc`
    gap_bound: float            # (mu_hi - mu_lo) * P_con
    iterations: int             # bisection mu-updates
    budget_slack: bool
    degenerate_blend: bool      # blend lies in the discrete domain
    # water-fillings of alloc_lo and alloc_hi; one object when the two agree
    fixed_lo: FixedAllocationSolve = field(repr=False)
    fixed_hi: FixedAllocationSolve = field(repr=False)


def solve_csra(inst: ProblemInstance, kappa: float | None = None) -> CsraResult:
    """Bisection solve of the subchannel-sharing problem to bracket width kappa."""
    if kappa is None:
        kappa = default_kappa(inst.p_con)
    if kappa <= 0.0:
        raise ValueError("bracket width must be positive")

    mu_min, mu_max = mu_bounds(inst)
    br = _bisect_budget(partial(evaluate_mu, inst),
                        lambda ev: ev.total_power_min, inst.p_con,
                        mu_min, mu_max, kappa)
    # The budget is slack when even mu_min, the lower end that then never
    # moved, spends less than P_con.  Reachable: atoms of a wide dynamic
    # range (e.g. [1e-300, 1e300]) leave the marginal flat within
    # ROOT_REL_TOL of mu_min, and the allocation spends a fraction of P_con
    # with gap 0; what to do instead is open (ROADMAP.md, robust sweeps).  The
    # tolerance keeps root-find noise at the exactly-binding corner out.
    budget_slack = br.at_lo.total_power_min < inst.p_con * (1.0 - 1e-6)
    if budget_slack:
        br = _Bracket(mu_min, mu_min, br.at_lo, br.at_lo, [], 0.0)
    lam, mu_lo, mu_hi = br.lam, br.lo, br.hi
    alloc_lo, alloc_hi = br.at_lo.alloc_min, br.at_hi.alloc_min
    same_ends = bool(np.array_equal(alloc_lo.indicator, alloc_hi.indicator))
    degenerate = lam in (0.0, 1.0) or same_ends
    blend = AllocationState(
        lam * alloc_hi.indicator + (1.0 - lam) * alloc_lo.indicator,
        lam * alloc_hi.actual_power + (1.0 - lam) * alloc_lo.actual_power,
        discrete=degenerate)
    blend_utility = allocation_utility(inst, blend)

    water_fill = partial(solve_fixed_allocation, inst,
                         kappa=refinement_kappa(mu_min, mu_max, kappa))
    fixed_lo = water_fill(alloc_lo.indicator)
    fixed_hi = fixed_lo if same_ends else water_fill(alloc_hi.indicator)

    best_alloc, best_util = blend, blend_utility
    for fs in (fixed_lo, fixed_hi):
        if fs.utility > best_util:
            best_util, best_alloc = fs.utility, fs.allocation()

    return CsraResult(
        mu_min=mu_min, mu_max=mu_max, mu_lo=mu_lo, mu_hi=mu_hi,
        alloc_lo=alloc_lo, alloc_hi=alloc_hi, lam=lam,
        blend=blend, blend_utility=blend_utility,
        alloc=best_alloc, utility=best_util,
        gap_bound=(mu_hi - mu_lo) * inst.p_con, iterations=len(br.mids),
        budget_slack=budget_slack, degenerate_blend=degenerate,
        fixed_lo=fixed_lo, fixed_hi=fixed_hi)
