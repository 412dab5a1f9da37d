"""Continuous (subchannel-sharing) solver: bisection over the power price.

The total optimal power X*(mu) is nonincreasing, so bisection over
[mu_min, mu_max] narrows a bracket containing the multiplier where the
budget binds; a midpoint binds when its min-power total reaches P_con.
Ends are evaluated lazily: only an end that never moved is evaluated, once,
after the bisection.  Once both ends have been evaluated, each midpoint
scores only the combinations that can still win inside the bracket
(``evaluate_mu`` screens with the two end evaluations): V_c(mu) is concave
and nondecreasing, so a combination whose score at the lower end exceeds
min(0, least score at the upper end) plus a few 1e-9 relative (the tie band,
the root tolerance and rounding) can never tie inside it.  The screened
allocations, mu_lo, mu_hi and the step count are bit for bit those of full
evaluations; at full scale a screened midpoint scores 64-1279 of 15 360
rows.  The final bracket's two end evaluations are kept on the result
(``at_lo`` and ``at_hi``), so that a later evaluation inside the bracket --
the discrete gap bound's midpoint (``dsra``) -- is screened the same way.

The endpoint allocations (min-power tie rule) are combined with the weight
lam that meets the budget exactly; when the two endpoint allocations
coincide, or lam is 0 or 1, the combination is itself a valid
one-combination-per-subchannel allocation.  If even mu_min spends less
than P_con, the budget is slack, and the search (``dual._bisect_budget``)
returns the bracket collapsed to [mu_min, mu_min] with lam = 0 and no
steps.  Atoms of a wide dynamic range reach it (ROADMAP, robust sweeps).

The utility of the returned solution sits within (mu_hi - mu_lo) * P_con of
the continuous optimum, so the bracket width kappa is a tunable optimality
certificate.  Its default, 0.3 / P_con, is capped at 1/16 of [mu_min,
mu_max]: a small budget otherwise makes it wider than the range, and the
solve takes no step.  Both endpoint indicators, empty ones included, are
also water-filled to their fixed-allocation optima into ``fixed_lo`` and
``fixed_hi`` (``waterfill``): a halving over at most N active combinations
each, which proposals of the binding price (a closed-form start, then
Newton steps on log mu) bring to its final bracket in a few evaluations;
an empty indicator needs none.  The best feasible of the blend and those
water-fillings is returned, the blend on an exact utility tie; this never
weakens the certificate -- every candidate is feasible and meets the budget
-- and the discrete solver, which keeps the one of ``fixed_lo`` and
``fixed_hi`` of higher utility, can never report more than the continuous
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dual import (AllocationState, ProblemInstance, _bisect_budget,
                   MuEvaluation, allocation_utility, evaluate_mu, mu_bounds)
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
    # the final bracket's end evaluations; their alloc_min are the ends'
    # allocations, and they screen later evaluations inside the bracket
    at_lo: MuEvaluation = field(repr=False)
    at_hi: MuEvaluation = field(repr=False)
    lam: float
    blend: AllocationState
    alloc: AllocationState      # best feasible candidate (blend or fixed_lo/hi)
    utility: float              # expected utility of `alloc`
    gap_bound: float            # (mu_hi - mu_lo) * P_con
    iterations: int             # bisection mu-updates
    budget_slack: bool
    degenerate_blend: bool      # blend lies in the discrete domain
    # water-fillings of the ends' allocations; one object when the two agree
    fixed_lo: FixedAllocationSolve = field(repr=False)
    fixed_hi: FixedAllocationSolve = field(repr=False)


def solve_csra(inst: ProblemInstance, kappa: float | None = None) -> CsraResult:
    """Bisection solve of the subchannel-sharing problem to bracket width
    kappa; by default ``default_kappa``, capped at 1/16 of [mu_min, mu_max]
    so that a small budget still takes 4 halvings."""
    if kappa is not None and not kappa > 0.0:
        raise ValueError("bracket width must be positive")
    mu_min, mu_max = mu_bounds(inst)
    if kappa is None:
        kappa = min(default_kappa(inst.p_con), (mu_max - mu_min) / 16.0)
    br = _bisect_budget(partial(evaluate_mu, inst),
                        lambda ev: ev.alloc_min.total_power, inst.p_con,
                        mu_min, mu_max, kappa)
    lam, mu_lo, mu_hi = br.lam, br.lo, br.hi
    alloc_lo, alloc_hi = br.at_lo.alloc_min, br.at_hi.alloc_min
    same_ends = bool(np.array_equal(alloc_lo.indicator, alloc_hi.indicator))
    degenerate = lam in (0.0, 1.0) or same_ends
    blend = AllocationState(
        lam * alloc_hi.indicator + (1.0 - lam) * alloc_lo.indicator,
        lam * alloc_hi.actual_power + (1.0 - lam) * alloc_lo.actual_power)

    water_fill = partial(solve_fixed_allocation, inst,
                         kappa=refinement_kappa(mu_min, mu_max, kappa))
    fixed_lo = water_fill(alloc_lo.indicator)
    fixed_hi = fixed_lo if same_ends else water_fill(alloc_hi.indicator)

    best_alloc, best_util = blend, allocation_utility(inst, blend)
    for fs in (fixed_lo, fixed_hi):
        if fs.utility > best_util:
            best_util, best_alloc = fs.utility, fs.alloc

    return CsraResult(
        mu_min=mu_min, mu_max=mu_max, mu_lo=mu_lo, mu_hi=mu_hi,
        at_lo=br.at_lo, at_hi=br.at_hi, lam=lam,
        blend=blend, alloc=best_alloc, utility=best_util,
        gap_bound=(mu_hi - mu_lo) * inst.p_con, iterations=len(br.mids),
        budget_slack=br.slack, degenerate_blend=degenerate,
        fixed_lo=fixed_lo, fixed_hi=fixed_hi)
