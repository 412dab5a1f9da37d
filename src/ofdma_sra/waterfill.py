"""Optimal power for one fixed discrete allocation (water-filling bisection).

For a fixed one-combination-per-subchannel indicator the budget-constrained
utility maximum is found by bisecting the multiplier: the per-combination
powers p*(mu) fall monotonically with mu, so the total X(I, mu) crosses the
budget exactly once and does so continuously (no scheduling ties can occur
with I held fixed).  The two endpoints of the final bracket are blended so
the returned powers meet the budget with equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import (AllocationState, ProblemInstance, _bisect_budget, _rows,
                   _thresholds, mu_bounds)
from .kernels import get_kernels


@dataclass
class FixedAllocationSolve:
    """The water-filled allocation of one fixed indicator and its bracket."""

    alloc: AllocationState  # the indicator and blended powers, sum == budget
    mu_lo: float
    mu_hi: float
    utility: float          # sum of expected utilities at the blended powers
    iterations: int


def solve_fixed_allocation(inst: ProblemInstance, indicator: np.ndarray,
                           kappa: float) -> FixedAllocationSolve:
    """Bisection on the multiplier for the powers of one fixed allocation."""
    if not kappa > 0.0:
        raise ValueError("bracket width must be positive")
    indicator = np.asarray(indicator, dtype=float)
    if indicator.shape != inst.shape:
        raise ValueError("indicator shape does not match the instance")
    if np.any((indicator != 0.0) & (indicator != 1.0)):
        raise ValueError("indicator must be 0/1")
    if np.any(indicator.sum(axis=(1, 2)) > 1.0 + 1e-12):
        raise ValueError("at most one combination per subchannel")

    mu_min, mu_max = mu_bounds(inst)
    active = np.flatnonzero(indicator)
    packed = _rows(inst, active)
    zero = _thresholds(inst, active)

    def roots(mu, *_ends):
        return get_kernels().power_roots(*packed, mu, *zero)

    br = _bisect_budget(roots, np.sum, inst.p_con, mu_min, mu_max, kappa)
    p_blend = br.lam * br.at_hi + (1.0 - br.lam) * br.at_lo
    utility = float(get_kernels().expected_utilities(*packed, p_blend).sum())

    x = np.zeros(inst.shape)
    x.ravel()[active] = p_blend
    return FixedAllocationSolve(
        alloc=AllocationState(indicator.copy(), x), mu_lo=float(br.lo),
        mu_hi=float(br.hi), utility=utility, iterations=len(br.mids))


def refinement_kappa(mu_min: float, mu_max: float, kappa: float) -> float:
    """Near-exact bracket for candidate re-solves.

    The candidate comparison bounds (brute force >= chosen candidate, and the
    no-tie exactness check at 1e-6) need fixed-allocation optima resolved far
    below the scheduling bracket kappa; a 2^-20 tightening costs ~20 extra
    bisection steps and keeps those comparisons structural.
    """
    return max(kappa * 2.0 ** -20, (mu_max - mu_min) * 2.0 ** -50, 1e-300)
