"""Optimal power for one fixed discrete allocation (water-filling).

For a fixed one-combination-per-subchannel indicator the budget-constrained
utility maximum is found on the multiplier: the per-combination powers
p*(mu) fall monotonically with mu, so the total X(I, mu) crosses the budget
exactly once and does so continuously (no scheduling ties can occur with I
held fixed).  The search is the budget halving of ``dual._bisect_budget``,
guided by proposals of the binding price:

* first, the closed-form water-filling level of the rows' log-marginal
  tangents at zero power (``_tangent_level``), exact for point-mass goodput
  rows, p* = log(a b r gamma / mu) / (b gamma), and below the binding
  price otherwise;
* then, after each evaluation, a Newton step on log mu, with
  dX/dlog(mu) = mu * sum 1/(d marginal/dp) over the rows with p* > 0 (one
  ``marginal_values`` pass at the roots).  Where log marginal is convex
  in p, as the kernels' root-finder assumes, X is convex in log mu, and
  steps from a point that binds approach the binding price from below.

The halving ends on the same bracket as without proposals, after 2
evaluations on point masses and 4-8 on 32-atom laws at desk scale, where
halving alone takes 29-33.  The two ends of that bracket are blended so the
returned powers meet the budget with equality, unless even mu_min spends
less (``budget_slack``; e.g. mu_min = 0 where the marginal underflows):
the search then returns the bracket collapsed onto mu_min and no steps.  An
empty indicator spends nothing, needs no search and is reported the same
way.
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
    budget_slack: bool      # spends less than the budget even at mu_min;
                            # mu_lo == mu_hi == mu_min, 0 iterations


def solve_fixed_allocation(inst: ProblemInstance, indicator: np.ndarray,
                           kappa: float) -> FixedAllocationSolve:
    """Water-fill one fixed allocation: the powers that maximize its expected
    utility and spend the budget."""
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
    x = np.zeros(inst.shape)
    if not active.size:  # nothing to price: collapsed as a slack budget is
        return FixedAllocationSolve(
            alloc=AllocationState(indicator.copy(), x), mu_lo=mu_min,
            mu_hi=mu_min, utility=0.0, iterations=0, budget_slack=True)
    packed = _rows(inst, active)
    zero = _thresholds(inst, active)

    def roots(mu, *_ends):
        return get_kernels().power_roots(*packed, mu, *zero)

    def binding_price(mu, p):
        # one Newton step on log mu from the roots p at mu; none where no
        # row is on (above every threshold), and the last proposal stands
        on = p > 0.0
        if not on.any():
            return np.nan
        slope = get_kernels().marginal_values(*packed, p)[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return mu * np.exp((inst.p_con - p.sum())
                               / (mu * np.sum(1.0 / slope[on])))

    br = _bisect_budget(roots, np.sum, inst.p_con, mu_min, mu_max, kappa,
                        binding_price, _tangent_level(*zero, inst.p_con))
    p_blend = br.lam * br.at_hi + (1.0 - br.lam) * br.at_lo
    utility = float(get_kernels().expected_utilities(*packed, p_blend).sum())

    x.ravel()[active] = p_blend
    return FixedAllocationSolve(
        alloc=AllocationState(indicator.copy(), x), mu_lo=float(br.lo),
        mu_hi=float(br.hi), utility=utility, iterations=len(br.mids),
        budget_slack=br.slack)


def _tangent_level(mv0: np.ndarray, dmv0: np.ndarray, p_con: float) -> float:
    """The price at which rows spend p_con when each log marginal is its
    tangent at zero power, log mv0 - s p with s = -dmv0 / mv0.

    That is water-filling in closed form: the rows switch on in the order of
    their thresholds mv0; with the k highest on, log mu = (sum log(mv0)/s -
    p_con) / sum 1/s, and k is the first count whose level reaches the next
    threshold.  Exact for point-mass goodput rows.  Where log marginals are
    convex in p (``kernels``), each tangent lies below its curve, and the
    level below the binding price.
    """
    order = np.argsort(-mv0)
    h = mv0[order]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_h, s = np.log(h), -dmv0[order] / h
        log_mu = (np.cumsum(log_h / s) - p_con) / np.cumsum(1.0 / s)
        reached = np.append(log_mu[:-1] >= log_h[1:], True)
        return float(np.exp(log_mu[np.argmax(reached)]))


def refinement_kappa(mu_min: float, mu_max: float, kappa: float) -> float:
    """Near-exact bracket for candidate re-solves.

    The candidate comparison bounds (brute force >= chosen candidate, and the
    no-tie exactness check at 1e-6) need fixed-allocation optima resolved far
    below the scheduling bracket kappa; the 2^-20 tightening keeps those
    comparisons structural.  The guided search (module docstring) reaches
    it in a few evaluations, where plain halving needs ~20 more than for
    kappa.
    """
    return max(kappa * 2.0 ** -20, (mu_max - mu_min) * 2.0 ** -50, 1e-300)
