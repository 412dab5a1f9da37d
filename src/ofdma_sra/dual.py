"""Per-combination dual machinery for the sum-power-constrained schedule.

For a multiplier mu > 0 pricing total power, each (subchannel, user, MCS)
combination gets

* a candidate power p*(mu): the unique root of
  marginal_value(p) = mu when mu is below the activation threshold
  (the marginal at p = 0), else 0;
* a score V(mu) = -E{U(g(p*, gamma))} + mu * p*.

On each subchannel the Lagrangian is minimized by giving the whole
subchannel to a combination with the most negative V (no allocation when
min V is not negative).  Ties within a relative tolerance form the winner
set; min-/max-power tie rules produce the two extreme discrete allocations
whose total powers bracket every optimal value at that mu.  The total
optimal power X*(mu) is nonincreasing in mu, which is what the bisection
solvers exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import get_kernels
from .snr import SnrDistribution
from .utility import UTILITY_CODES, McsTable, UtilitySpec, expected_utility

V_TIE_RTOL = 1e-9

MIN_POWER = "min"
MAX_POWER = "max"


@dataclass(eq=False)
class ProblemInstance:
    """One solvable scheduling problem: distributions, MCS table, utility, budget."""

    mcs: McsTable
    utility: UtilitySpec
    dists: list[list[SnrDistribution]]  # indexed [subchannel][user]
    p_con: float

    def __post_init__(self):
        if self.p_con <= 0.0 or not np.isfinite(self.p_con):
            raise ValueError("power budget must be positive and finite")
        if not self.dists or not self.dists[0]:
            raise ValueError("need at least one subchannel and one user")
        k = len(self.dists[0])
        if any(len(row) != k for row in self.dists):
            raise ValueError("ragged distribution matrix")
        if k != self.mcs.n_users:
            raise ValueError("MCS table user count does not match distributions")
        if self.utility.n_users != k:
            raise ValueError("utility parameter count does not match users")
        if self.utility.variant == "capacity_log" and np.any(self.mcs.r > 1.0):
            raise ValueError("capacity-log utility requires rates r <= 1 "
                             "so that goodput stays below 1")
        self._flat = None

    @property
    def n_subchannels(self) -> int:
        return len(self.dists)

    @property
    def n_users(self) -> int:
        return len(self.dists[0])

    @property
    def n_mcs(self) -> int:
        return self.mcs.n_mcs

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_subchannels, self.n_users, self.n_mcs)

    # -- flat (combination, atom) packing for the kernels ------------------

    def flat(self) -> dict:
        """Arrays over combinations c = (n*K + k)*M + m, cached."""
        if self._flat is None:
            n_sub, n_usr, _ = self.shape
            n_atoms = max(d.n_atoms for row in self.dists for d in row)
            gamma = np.zeros((n_sub, n_usr, 1, n_atoms))
            w = np.zeros((n_sub, n_usr, 1, n_atoms))
            for n, row in enumerate(self.dists):
                for k, d in enumerate(row):
                    gamma[n, k, 0, :d.n_atoms] = d.values
                    w[n, k, 0, :d.n_atoms] = d.weights

            def per_combination(arr, tail=()):
                return np.broadcast_to(arr, self.shape + tail).reshape(-1, *tail)

            self._flat = {
                "gamma": per_combination(gamma, (n_atoms,)),
                "w": per_combination(w, (n_atoms,)),
                "a": per_combination(self.mcs.a),
                "b": per_combination(self.mcs.b),
                "r": per_combination(self.mcs.r),
                "uparam": per_combination(self.utility.param[:, None]),
                "ucode": self.utility.code,
            }
        return self._flat

    def _batch(self, fn_name: str, arg) -> np.ndarray:
        return _run_kernel(fn_name, self.flat(), arg).reshape(self.shape)

    def marginal_values_at(self, p: np.ndarray) -> np.ndarray:
        """Marginal of expected utility at per-combination powers p (N,K,M)."""
        return self._batch("marginal_values", np.asarray(p, dtype=float).ravel())

    def expected_utilities_at(self, p: np.ndarray) -> np.ndarray:
        return self._batch("expected_utilities", np.asarray(p, dtype=float).ravel())

    def power_roots_at(self, mu: float) -> np.ndarray:
        return self._batch("power_roots", float(mu))


def _run_kernel(fn_name: str, packed: dict, arg, ucode: int | None = None
                ) -> np.ndarray:
    """One kernel over packed rows, under their utility or the given code."""
    fn = getattr(get_kernels(), fn_name)
    return fn(packed["gamma"], packed["w"], packed["a"], packed["b"],
              packed["r"], packed["ucode"] if ucode is None else ucode,
              packed["uparam"], arg)


def _packed_rows(inst: ProblemInstance, rows: np.ndarray) -> dict:
    """The packed kernel arrays of ``inst`` at flat combination indices rows."""
    return {key: val[rows] if isinstance(val, np.ndarray) else val
            for key, val in inst.flat().items()}


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

    def validate(self, atol: float = 1e-9) -> None:
        ind, x = self.indicator, self.actual_power
        if np.any(ind < -atol) or np.any(ind > 1.0 + atol):
            raise ValueError("indicator entries outside [0, 1]")
        if np.any(ind.sum(axis=(1, 2)) > 1.0 + atol):
            raise ValueError("some subchannel is over-shared")
        if np.any(x < -atol):
            raise ValueError("negative actual power")
        if np.any((ind == 0.0) & (np.abs(x) > atol)):
            raise ValueError("power assigned to an unallocated combination")
        if self.discrete and np.any((ind != 0.0) & (np.abs(ind - 1.0) > atol)):
            raise ValueError("discrete allocation has fractional shares")

    @property
    def total_power(self) -> float:
        return float(self.actual_power.sum())

    def powers(self) -> np.ndarray:
        """Per-combination powers p = x / I with 0/0 := 0."""
        out = np.zeros_like(self.actual_power)
        mask = self.indicator > 0.0
        out[mask] = self.actual_power[mask] / self.indicator[mask]
        return out

    @classmethod
    def zeros(cls, shape: tuple[int, int, int], discrete: bool = True):
        return cls(np.zeros(shape), np.zeros(shape), discrete=discrete)


@dataclass(frozen=True)
class WinnerSet:
    """Tied Lagrangian-minimizing (user, MCS) pairs on one subchannel."""

    pairs: tuple[tuple[int, int], ...]
    v_min: float


@dataclass(frozen=True)
class MuEvaluation:
    """Everything the solvers need at one multiplier value."""

    mu: float
    p_star: np.ndarray     # (N,K,M)
    exp_util: np.ndarray   # (N,K,M) expected utility at p_star
    v: np.ndarray          # (N,K,M) = mu*p_star - exp_util
    alloc_min: AllocationState = field(repr=False)
    alloc_max: AllocationState = field(repr=False)

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


def _pick(tied: np.ndarray, key: np.ndarray, p2: np.ndarray,
          shape: tuple[int, int, int]) -> AllocationState:
    """Each subchannel to its tied entry of least key (lowest index on equal keys)."""
    win = np.where(tied, key, np.inf).argmin(axis=1)
    n = np.flatnonzero(tied.any(axis=1))
    indicator = np.zeros(p2.shape)
    x = np.zeros(p2.shape)
    indicator[n, win[n]] = 1.0
    x[n, win[n]] = p2[n, win[n]]
    return AllocationState(indicator.reshape(shape), x.reshape(shape),
                           discrete=True)


def evaluate_mu(inst: ProblemInstance, mu: float) -> MuEvaluation:
    """Score all combinations at mu and build both extreme discrete allocations."""
    if not np.isfinite(mu):
        raise ValueError("multiplier must be finite")
    p_star = inst.power_roots_at(mu)
    exp_util = inst.expected_utilities_at(p_star)
    v = mu * p_star - exp_util

    n_sub = inst.n_subchannels
    p2 = p_star.reshape(n_sub, -1)
    tied = _tie_mask(v.reshape(n_sub, -1))
    return MuEvaluation(
        mu=float(mu), p_star=p_star, exp_util=exp_util, v=v,
        alloc_min=_pick(tied, p2, p2, inst.shape),
        alloc_max=_pick(tied, -p2, p2, inst.shape),
    )


# ---------------------------------------------------------------------------
# budget bisection over the power price
# ---------------------------------------------------------------------------


@dataclass
class _Bracket:
    """Final price bracket and the latest evaluation at each of its ends."""

    lo: float
    hi: float
    at_lo: object       # None until evaluated
    at_hi: object
    mids: list[float]   # every midpoint evaluated, in order


def _bisect_budget(evaluate, binds, lo: float, hi: float, kappa: float,
                   n_steps: int | None = None, at_lo=None) -> _Bracket:
    """Halve [lo, hi] on the power price mu around the budget-binding point.

    ``evaluate(mu)`` is the work done at one price and ``binds(result)`` says
    whether the budget still binds there, in which case mid becomes the lower
    end.  Stops once the bracket is at most kappa wide, or after exactly
    n_steps midpoints when that is given.  ``at_lo`` may carry an evaluation
    already made at ``lo``.
    """
    at_hi = None
    mids = []
    while (hi - lo > kappa) if n_steps is None else (len(mids) < n_steps):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        at_mid = evaluate(mid)
        if binds(at_mid):
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    return _Bracket(lo, hi, at_lo, at_hi, mids)


def _blend_weight(br: _Bracket, evaluate, total, budget: float
                  ) -> tuple[float, float]:
    """Weight lam on the upper end so that the blend of the ends spends budget.

    An end that never moved is evaluated here, once.  ``total(result)`` is
    the power an evaluation spends.  Returns the raw weight and the weight
    clipped to [0, 1].
    """
    if br.at_lo is None:
        br.at_lo = evaluate(br.lo)
    if br.at_hi is None:
        br.at_hi = evaluate(br.hi)
    x_lo, x_hi = total(br.at_lo), total(br.at_hi)
    lam_raw = 0.0 if x_lo == x_hi else (x_lo - budget) / (x_lo - x_hi)
    return lam_raw, min(max(lam_raw, 0.0), 1.0)


# ---------------------------------------------------------------------------
# public per-combination and per-instance operations
# ---------------------------------------------------------------------------


def power_root(dist: SnrDistribution, mcs, util: UtilitySpec, mu: float,
               k: int = 0) -> float:
    """Power where the expected-utility marginal equals mu (0 above threshold)."""
    if not np.isfinite(mu):
        raise ValueError("multiplier must be finite")
    a, b, r = mcs
    out = get_kernels().power_roots(
        dist.values[None, :], dist.weights[None, :],
        np.array([a]), np.array([b]), np.array([r]),
        util.code, np.array([util.param[k]]), float(mu))
    return float(out[0])


def v_metric(dist: SnrDistribution, mcs, util: UtilitySpec, mu: float,
             p_star: float, k: int = 0) -> float:
    """-E{U(g(p*, gamma))} + mu * p*."""
    return float(mu * p_star - expected_utility(dist, p_star, mcs, util, k))


def winner_sets(inst: ProblemInstance, mu: float) -> list[WinnerSet]:
    """Per subchannel, the (user, MCS) pairs tied for the least score at mu."""
    v2 = evaluate_mu(inst, mu).v.reshape(inst.n_subchannels, -1)
    n_mcs = inst.n_mcs
    return [WinnerSet(pairs=tuple((int(i) // n_mcs, int(i) % n_mcs)
                                  for i in np.flatnonzero(row)),
                      v_min=float(v.min()))
            for row, v in zip(_tie_mask(v2), v2)]


def mu_bounds(inst: ProblemInstance) -> tuple[float, float]:
    """Multiplier range bracketing the budget-active optimum.

    mu_min is the smallest marginal when every combination spends the whole
    budget; mu_max the largest activation threshold (marginal at zero power).
    Above mu_max no combination accepts power.
    """
    shape = inst.shape
    mv_full = inst.marginal_values_at(np.full(shape, inst.p_con))
    mv_zero = inst.marginal_values_at(np.zeros(shape))
    return float(mv_full.min()), float(mv_zero.max())


def allocation_at_mu(inst: ProblemInstance, mu: float,
                     tie_rule: str = MIN_POWER) -> AllocationState:
    """Discrete Lagrangian-minimizing allocation at mu under a tie rule."""
    ev = evaluate_mu(inst, mu)
    if tie_rule == MIN_POWER:
        return ev.alloc_min
    if tie_rule == MAX_POWER:
        return ev.alloc_max
    raise ValueError(f"unknown tie rule {tie_rule!r}")


def total_power(inst: ProblemInstance, mu: float,
                tie_rule: str = MIN_POWER) -> float:
    """X*(mu): total power of the tie-resolved optimal allocation at mu."""
    return allocation_at_mu(inst, mu, tie_rule).total_power


def lagrangian(inst: ProblemInstance, mu: float,
               alloc: AllocationState) -> float:
    """L(mu, I, x) = sum_I I*F(I, x) + (sum x - P_con) * mu."""
    return (-allocation_utility(inst, alloc)
            + (alloc.total_power - inst.p_con) * mu)


def _allocation_sum(inst: ProblemInstance, alloc: AllocationState,
                    ucode: int | None = None) -> float:
    """sum I * E{U(g(x/I, gamma))} over the allocated combinations only."""
    rows = np.flatnonzero(alloc.indicator > 0.0)
    eu = _run_kernel("expected_utilities", _packed_rows(inst, rows),
                     alloc.powers().ravel()[rows], ucode)
    return float(np.sum(alloc.indicator.ravel()[rows] * eu))


def allocation_utility(inst: ProblemInstance, alloc: AllocationState) -> float:
    """sum I * E{U(g(x/I, gamma))} with 0/0 := 0."""
    return _allocation_sum(inst, alloc)


def allocation_goodput(inst: ProblemInstance, alloc: AllocationState) -> float:
    """Expected error-free bits of an allocation, regardless of the utility."""
    return _allocation_sum(inst, alloc, UTILITY_CODES["goodput"])
