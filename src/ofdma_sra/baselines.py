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

import numpy as np

from .dual import AllocationState, ProblemInstance, _rows, evaluate_mu, mu_bounds
from .kernels import get_kernels
from .snr import STREAM_SCHEDULER
from .utility import UTILITY_CODES


def fp_rus_baseline(inst: ProblemInstance, seed: int) -> AllocationState:
    """Random user per subchannel, power P_con/N, goodput-best fixed MCS.

    MCS selection maximizes the expected goodput (not the scenario utility)
    of the drawn user at the fixed power.
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
    best_m = good.reshape(n_sub, n_mcs).argmax(axis=1)
    indicator = np.zeros(inst.shape)
    x = np.zeros(inst.shape)
    indicator[subs, users, best_m] = 1.0
    x[subs, users, best_m] = p
    return AllocationState(indicator, x)


def subgradient_baseline(inst: ProblemInstance, n_updates: int,
                         scale: float = 1.0) -> AllocationState:
    """Dual ascent with step scale/i on the budget violation.

    mu_{i+1} = max(mu_min, mu_i + scale * (X*(mu_i) - P_con) / i), from the
    midpoint of [mu_min, mu_max]; returns the min-power allocation at the
    last of the n_updates multipliers visited.  The iterates close in on the
    budget-binding multiplier far slower than bisection, which is the point
    of keeping this around.
    """
    if n_updates < 1:
        raise ValueError("need at least one update")
    if not 0.0 < scale < np.inf:
        raise ValueError("step scale must be finite and positive")
    mu_min, mu_max = mu_bounds(inst)
    mu = 0.5 * (mu_min + mu_max)
    for i in range(1, n_updates + 1):
        alloc = evaluate_mu(inst, mu).alloc_min
        mu = max(mu_min, mu + scale * (alloc.total_power - inst.p_con) / i)
    return alloc
