"""Reference schemes the solvers are judged against.

* fixed-power random-user scheduling: no instantaneous CSI at all; one
  uniformly drawn user per subchannel, power P_con/N, and whichever MCS
  maximizes expected goodput at that power (a lower bound for everyone),
* projected subgradient on the dual variable with 1/i steps: the
  convergence-speed strawman for the bisection.

The perfect-CSI upper bound needs no code of its own: the runner's
``CSRA-PCSI`` scheme is ``solve_csra`` on point masses at the realized SNRs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import AllocationState, ProblemInstance, _rows, evaluate_mu, mu_bounds
from .kernels import get_kernels
from .snr import STREAM_SCHEDULER
from .utility import UTILITY_CODES


def fp_rus_baseline(inst: ProblemInstance,
                    seed: int) -> tuple[AllocationState, float]:
    """Random user per subchannel, power P_con/N, goodput-best fixed MCS.

    MCS selection maximizes the expected goodput (not the scenario utility)
    of the drawn user at the fixed power.  Returns the allocation and its
    total expected goodput.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(STREAM_SCHEDULER,)))
    n_sub, n_usr, n_mcs = inst.shape
    users = rng.integers(0, n_usr, size=n_sub)
    p = inst.p_con / n_sub

    subs = np.arange(n_sub)
    rows = ((subs * n_usr + users)[:, None] * n_mcs + np.arange(n_mcs)).ravel()
    good = get_kernels().expected_utilities(
        *_rows(inst, rows, UTILITY_CODES["goodput"]), np.full(rows.size, p))
    good = good.reshape(n_sub, n_mcs)
    best_m = good.argmax(axis=1)
    indicator = np.zeros(inst.shape)
    x = np.zeros(inst.shape)
    indicator[subs, users, best_m] = 1.0
    x[subs, users, best_m] = p
    total_goodput = float(good[subs, best_m].sum())
    return AllocationState(indicator, x, discrete=True), total_goodput


@dataclass
class SubgradientTrace:
    """Per-update multiplier, allocation utility, and total power."""

    mus: np.ndarray
    utilities: np.ndarray
    total_powers: np.ndarray
    alloc: AllocationState  # min-power allocation at the last multiplier

    def __len__(self):
        return self.mus.size


def subgradient_baseline(inst: ProblemInstance, n_updates: int,
                         scale: float = 1.0) -> SubgradientTrace:
    """Dual ascent with step scale/i on the budget violation.

    mu_{i+1} = max(mu_min, mu_i + scale * (X*(mu_i) - P_con) / i), from the
    midpoint of [mu_min, mu_max]; the allocation at each visited mu is scored
    by its expected utility.  The iterates close in on the budget-binding
    multiplier far slower than bisection, which is the point of keeping this
    around.
    """
    if n_updates < 1:
        raise ValueError("need at least one update")
    mu_min, mu_max = mu_bounds(inst)
    mu = 0.5 * (mu_min + mu_max)

    mus = np.empty(n_updates)
    utils = np.empty(n_updates)
    totals = np.empty(n_updates)
    for i in range(1, n_updates + 1):
        ev = evaluate_mu(inst, mu)
        alloc = ev.alloc_min
        mus[i - 1] = mu
        totals[i - 1] = alloc.total_power
        utils[i - 1] = float((alloc.indicator * ev.exp_util).sum())
        mu = max(mu_min, mu + scale * (alloc.total_power - inst.p_con) / i)
    return SubgradientTrace(mus=mus, utilities=utils, total_powers=totals,
                            alloc=alloc)
