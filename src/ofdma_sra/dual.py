"""Per-combination dual machinery for the sum-power-constrained schedule.

For a multiplier mu > 0 pricing total power, each (subchannel, user, MCS)
combination gets

* a candidate power p*(mu): the unique root of the expected-utility
  marginal equal to mu when mu is below the activation threshold
  (the marginal at zero power), else 0;
* a score V(mu) = -E{U(g(p*, gamma))} + mu * p*.

On each subchannel the Lagrangian is minimized by giving the whole
subchannel to a combination with the most negative V (no allocation when
min V is not negative).  Ties within a relative tolerance form the winner
set; the min-power tie rule picks the discrete allocation X_min whose total
power is the least of every optimal value at that mu.  The total optimal
power X*(mu) is nonincreasing in mu, which is what the bisection solvers
exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import get_kernels
from .snr import SnrDistribution
from .utility import UTILITY_CODES, McsTable, UtilitySpec

V_TIE_RTOL = 1e-9


@dataclass(eq=False)
class ProblemInstance:
    """One scheduling problem: an (N, K) batch of SNR laws, MCS table, utility, budget."""

    mcs: McsTable
    utility: UtilitySpec
    dists: SnrDistribution  # one batch: values and weights (N, K, atoms)
    p_con: float

    def __post_init__(self):
        if self.p_con <= 0.0 or not np.isfinite(self.p_con):
            raise ValueError("power budget must be positive and finite")
        if not isinstance(self.dists, SnrDistribution) or self.dists.values.ndim != 3:
            raise ValueError("dists must be an SnrDistribution of shape (N, K, atoms)")
        k = self.n_users
        if k != self.mcs.n_users:
            raise ValueError("MCS table user count does not match distributions")
        if self.utility.n_users != k:
            raise ValueError("utility parameter count does not match users")
        if self.utility.variant == "capacity_log" and np.any(self.mcs.r > 1.0):
            raise ValueError("capacity-log utility requires rates r <= 1 "
                             "so that goodput stays below 1")
        self._flat = None
        self._mu_bounds = None
        self._thresholds = None

    @property
    def n_subchannels(self) -> int:
        return self.dists.values.shape[0]

    @property
    def n_users(self) -> int:
        return self.dists.values.shape[1]

    @property
    def n_mcs(self) -> int:
        return self.mcs.n_mcs

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_subchannels, self.n_users, self.n_mcs)

    # -- flat (combination, atom) packing for the kernels ------------------

    def flat(self) -> tuple:
        """The kernels' arguments ``(gamma, w, a, b, r, ucode, uparam)`` over
        combinations c = (n*K + k)*M + m, cached; ``_rows`` selects rows."""
        if self._flat is None:
            atoms = (self.dists.n_atoms,)

            def per_combination(arr, tail=()):
                return np.broadcast_to(arr, self.shape + tail).reshape(-1, *tail)

            self._flat = (per_combination(self.dists.values[:, :, None], atoms),
                          per_combination(self.dists.weights[:, :, None], atoms),
                          per_combination(self.mcs.a), per_combination(self.mcs.b),
                          per_combination(self.mcs.r), self.utility.code,
                          per_combination(self.utility.param[:, None]))
        return self._flat


def _rows(inst: ProblemInstance, rows=slice(None), ucode: int | None = None
          ) -> tuple:
    """The kernels' arguments at flat combination indices rows (views for a
    slice, so all rows copy nothing), under the instance's utility or ucode."""
    gamma, w, a, b, r, code, uparam = inst.flat()
    return (gamma[rows], w[rows], a[rows], b[rows], r[rows],
            code if ucode is None else ucode, uparam[rows])


def _thresholds(inst: ProblemInstance, rows=slice(None)):
    """Marginal (the activation threshold) and slope at zero power at flat
    indices rows; computed for every combination once, on first need."""
    if inst._thresholds is None:
        inst._thresholds = get_kernels().marginal_values(
            *_rows(inst), np.zeros(inst.shape).ravel())
    mv0, dmv0 = inst._thresholds
    return mv0[rows], dmv0[rows]


@dataclass
class AllocationState:
    """Subchannel shares I (N,K,M) and actual powers x = I * p (N,K,M)."""

    indicator: np.ndarray
    actual_power: np.ndarray
    discrete: bool = False

    def __post_init__(self):
        self.indicator = np.asarray(self.indicator, dtype=float)
        self.actual_power = np.asarray(self.actual_power, dtype=float)
        if self.indicator.shape != self.actual_power.shape or self.indicator.ndim != 3:
            raise ValueError("indicator and actual_power must share one (N,K,M) shape")

    @property
    def total_power(self) -> float:
        return float(self.actual_power.sum())

    def powers(self) -> np.ndarray:
        """Per-combination powers p = x / I with 0/0 := 0."""
        out = np.zeros_like(self.actual_power)
        mask = self.indicator > 0.0
        out[mask] = self.actual_power[mask] / self.indicator[mask]
        return out


@dataclass(frozen=True)
class MuEvaluation:
    """Everything the solvers need at one multiplier value."""

    p_star: np.ndarray     # (N,K,M)
    exp_util: np.ndarray   # (N,K,M) expected utility at p_star
    v: np.ndarray          # (N,K,M) = mu*p_star - exp_util
    alloc_min: AllocationState = field(repr=False)  # min-power tie rule

    @property
    def total_power_min(self) -> float:
        return self.alloc_min.total_power


def _tie_mask(v2: np.ndarray, slack=0.0) -> np.ndarray:
    """(N, K*M) mask of the scores tied with their subchannel's minimum.

    Scores within V_TIE_RTOL * max(1, |V_min|) + slack of the minimum tie; a
    subchannel whose minimum is not negative beyond that relative tolerance
    has no winner and an all-False row.
    """
    v_min = v2.min(axis=1, keepdims=True)
    eps = V_TIE_RTOL * np.maximum(1.0, np.abs(v_min))
    return (v2 <= v_min + (eps + slack)) & (v_min <= -eps)


def evaluate_mu(inst: ProblemInstance, mu: float) -> MuEvaluation:
    """Score all combinations at mu and build the min-power discrete allocation.

    Each subchannel goes to its tied combination of least power, the lowest
    index among equal powers.
    """
    if not np.isfinite(mu):
        raise ValueError("multiplier must be finite")
    rows = _rows(inst)
    p_flat = get_kernels().power_roots(*rows, float(mu), *_thresholds(inst))
    p_star = p_flat.reshape(inst.shape)
    exp_util = get_kernels().expected_utilities(*rows, p_flat).reshape(inst.shape)
    v = mu * p_star - exp_util

    n_sub = inst.n_subchannels
    p2 = p_star.reshape(n_sub, -1)
    tied = _tie_mask(v.reshape(n_sub, -1))
    win = np.where(tied, p2, np.inf).argmin(axis=1)
    n = np.flatnonzero(tied.any(axis=1))
    indicator = np.zeros(p2.shape)
    x = np.zeros(p2.shape)
    indicator[n, win[n]] = 1.0
    x[n, win[n]] = p2[n, win[n]]
    alloc = AllocationState(indicator.reshape(inst.shape), x.reshape(inst.shape),
                            discrete=True)
    return MuEvaluation(p_star=p_star, exp_util=exp_util, v=v, alloc_min=alloc)


# ---------------------------------------------------------------------------
# budget bisection over the power price
# ---------------------------------------------------------------------------


@dataclass
class _Bracket:
    """Final price bracket, the evaluation at each end and the blend weight."""

    lo: float
    hi: float
    at_lo: object
    at_hi: object
    mids: list[float]   # every midpoint evaluated, in order
    lam: float          # weight on the upper end of the budget-meeting blend


def _bisect_budget(evaluate, total, budget: float, lo: float, hi: float,
                   kappa: float) -> _Bracket:
    """Halve [lo, hi] on the power price mu around the budget-binding point.

    ``evaluate(mu)`` is the work done at one price and ``total(result)`` the
    power it spends.  One comparison decides binding: a midpoint with
    ``total >= budget`` becomes the lower end, any other the upper end.  Stops
    once the bracket is at most kappa wide.  Ends are evaluated lazily: only
    an end that never moved is evaluated, once, after the loop.  ``lam`` is
    the weight on the upper end at which the blend of the two ends spends
    ``budget``, clipped to [0, 1].
    """
    at_lo = at_hi = None
    mids = []
    while hi - lo > kappa:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        at_mid = evaluate(mid)
        if total(at_mid) >= budget:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    if at_lo is None:
        at_lo = evaluate(lo)
    if at_hi is None:
        at_hi = evaluate(hi)
    x_lo, x_hi = total(at_lo), total(at_hi)
    lam = 0.0 if x_lo == x_hi else (x_lo - budget) / (x_lo - x_hi)
    return _Bracket(lo, hi, at_lo, at_hi, mids, min(max(lam, 0.0), 1.0))


# ---------------------------------------------------------------------------
# public per-instance operations
# ---------------------------------------------------------------------------


def mu_bounds(inst: ProblemInstance) -> tuple[float, float]:
    """Multiplier range bracketing the budget-active optimum.

    mu_min is the smallest marginal when every combination spends the whole
    budget; mu_max the largest activation threshold (marginal at zero power).
    Above mu_max no combination accepts power.  Computed once per instance.
    """
    if inst._mu_bounds is None:
        mv_full = get_kernels().marginal_values(
            *_rows(inst), np.full(inst.shape, inst.p_con).ravel())[0]
        inst._mu_bounds = (float(mv_full.min()), float(_thresholds(inst)[0].max()))
    return inst._mu_bounds


def _allocation_sum(inst: ProblemInstance, alloc: AllocationState,
                    ucode: int | None = None) -> float:
    """sum I * E{U(g(x/I, gamma))} over the allocated combinations only."""
    rows = np.flatnonzero(alloc.indicator > 0.0)
    eu = get_kernels().expected_utilities(*_rows(inst, rows, ucode),
                                          alloc.powers().ravel()[rows])
    return float(np.sum(alloc.indicator.ravel()[rows] * eu))


def allocation_utility(inst: ProblemInstance, alloc: AllocationState) -> float:
    """sum I * E{U(g(x/I, gamma))} with 0/0 := 0."""
    return _allocation_sum(inst, alloc)


def allocation_goodput(inst: ProblemInstance, alloc: AllocationState) -> float:
    """Expected error-free bits of an allocation, regardless of the utility."""
    return _allocation_sum(inst, alloc, UTILITY_CODES["goodput"])
