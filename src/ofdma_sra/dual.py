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

Each V is concave and nondecreasing in mu, so given the evaluations at the
ends of a bisection bracket ``evaluate_mu`` scores only the combinations
that can still win inside it (safe screening, after Ndiaye, Fercoq,
Gramfort and Salmon, JMLR 2017; the rule and its margin are in its
docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import ROOT_REL_TOL, get_kernels, zero_power_utilities
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
        """The kernels' arguments ``(gamma, w, a, b, r, ucode, uparam)``, cached.

        ``gamma`` and ``w`` are the law table in place: views of the
        distributions as (N*K, atoms), one law per (n, k).  ``a``, ``b``,
        ``r`` and ``uparam`` are per combination c = (n*K + k)*M + m, which
        reads law c // M.  ``_rows`` selects rows."""
        if self._flat is None:
            laws = (-1, self.dists.n_atoms)

            def per_combination(arr):
                return np.broadcast_to(arr, self.shape).reshape(-1)

            self._flat = (self.dists.values.reshape(laws),
                          self.dists.weights.reshape(laws),
                          per_combination(self.mcs.a), per_combination(self.mcs.b),
                          per_combination(self.mcs.r), self.utility.code,
                          per_combination(self.utility.param[:, None]))
        return self._flat


def _rows(inst: ProblemInstance, rows=slice(None), ucode: int | None = None
          ) -> tuple:
    """The kernels' arguments at flat combination indices rows, under the
    instance's utility or ucode.  ``slice(None)`` (all rows) is ``flat()``
    itself, the law table copied nowhere; an index array copies each row's
    law once, one law per row."""
    gamma, w, a, b, r, code, uparam = inst.flat()
    if not isinstance(rows, slice):
        law = rows // inst.n_mcs
        gamma, w = gamma[law], w[law]
    return (gamma, w, a[rows], b[rows], r[rows],
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

    p_star: np.ndarray     # (N,K,M); NaN where screened out (evaluate_mu)
    exp_util: np.ndarray   # (N,K,M) expected utility at p_star; NaN likewise
    v: np.ndarray          # (N,K,M) = mu*p_star - exp_util; +inf likewise
    alloc_min: AllocationState = field(repr=False)  # min-power tie rule


def _tie_mask(v2: np.ndarray, slack=0.0) -> np.ndarray:
    """(N, K*M) mask of the scores tied with their subchannel's minimum.

    Scores within V_TIE_RTOL * max(1, |V_min|) + slack of the minimum tie; a
    subchannel whose minimum is not negative beyond that relative tolerance
    has no winner and an all-False row.
    """
    v_min = v2.min(axis=1, keepdims=True)
    eps = V_TIE_RTOL * np.maximum(1.0, np.abs(v_min))
    return (v2 <= v_min + (eps + slack)) & (v_min <= -eps)


def _expected_at_roots(inst: ProblemInstance, rows, p: np.ndarray) -> np.ndarray:
    """Expected utilities at powers p on flat indices rows (slice(None): all).

    Rows with p = 0 take E U(0) in closed form (``zero_power_utilities``),
    0 at a = 1 as the atom sum is.  The kernel runs over all of rows when
    more than half of them have p > 0, else over those alone, gathered, so
    no larger block of laws is copied than ``power_roots`` gathers at entry.
    Per-row kernel sums do not depend on the rows present.
    """
    on = p > 0.0
    _, _, a, _, r, code, uparam = inst.flat()
    eu = zero_power_utilities(a[rows], r[rows], code, uparam[rows])
    if 2 * np.count_nonzero(on) > p.size:
        eu[on] = get_kernels().expected_utilities(*_rows(inst, rows), p)[on]
    elif on.any():
        flat = rows if isinstance(rows, np.ndarray) else np.arange(p.size)
        eu[on] = get_kernels().expected_utilities(*_rows(inst, flat[on]), p[on])
    return eu


# Screening slack per unit of max(mu * p + |E U|) over a subchannel's rows at
# the lower end: two inexact roots and the rounding of four scores
# (evaluate_mu's docstring).
_SCREEN_RTOL = 4.0 * ROOT_REL_TOL + 64.0 * np.finfo(float).eps


def _survivors(inst: ProblemInstance, mu: float, at_lo: MuEvaluation,
               at_hi: MuEvaluation) -> np.ndarray:
    """Flat indices of the combinations that can still tie for their
    subchannel's least score at mu, inside the bracket whose ends were
    evaluated as at_lo and at_hi (the screening rule of evaluate_mu)."""
    n_sub = inst.n_subchannels
    v_lo = at_lo.v.reshape(n_sub, -1)
    scale = (mu * at_lo.p_star.reshape(n_sub, -1)
             + np.abs(at_lo.exp_util.reshape(n_sub, -1)))
    margin = (V_TIE_RTOL * np.maximum(1.0, -v_lo.min(axis=1, initial=0.0))
              + _SCREEN_RTOL * scale.max(axis=1, initial=0.0,
                                         where=np.isfinite(v_lo)))
    cut = at_hi.v.reshape(n_sub, -1).min(axis=1, initial=0.0) + margin
    return np.flatnonzero(v_lo <= cut[:, None])


def evaluate_mu(inst: ProblemInstance, mu: float,
                at_lo: MuEvaluation | None = None,
                at_hi: MuEvaluation | None = None) -> MuEvaluation:
    """Score the combinations at mu and build the min-power discrete allocation.

    Each subchannel goes to its tied combination of least power, the lowest
    index among equal powers.  Without at_lo and at_hi every combination is
    scored.

    **Screening.**  With at_lo and at_hi, the evaluations at the ends of a
    bracket [lo, hi] that holds mu, only the survivors are scored: on
    subchannel n, the combinations c with

        V_c(lo) <= min(0, min_c' V_c'(hi)) + margin_n.

    The others carry v = +inf, so that a narrower bracket with this
    evaluation at one end keeps them out, and NaN p_star and exp_util.
    ``alloc_min`` is bit for bit the one of a full evaluation.

    *Why it is sound.*  V_c(mu) = min_p (mu p - E U_c(p)) is concave and
    nondecreasing in mu, so V_c(lo) <= V_c(mu) <= V_c(hi).  A combination
    tied at mu has V_c(mu) <= v_min(mu) + eps(mu) <= 0 and v_min(mu) <=
    V_c'(mu) <= V_c'(hi) for every c', so V_c(lo) <= min(0, min V(hi)) +
    eps(mu).  The minimum of a subchannel with a winner is itself tied, so
    it survives: v_min and the tie band are those of the full evaluation,
    the tied set is the same, and so is the least-power pick.  A subchannel
    with no winner has none among its survivors either.

    *The margin*, for computed scores, is the sum of
      * the tie band: eps(mu) = V_TIE_RTOL * max(1, |v_min(mu)|) with
        v_min(lo) <= v_min(mu) <= 0, so V_TIE_RTOL * max(1, -min(0,
        v_min(lo)));
      * inexact roots: the score's slope in p is mu - marginal(p), and the
        kernels accept a root p at |mu - marginal(p)| <= ROOT_REL_TOL * mu.
        The score is convex in p, so it exceeds V_c(mu) by at most
        ROOT_REL_TOL * mu * |p - p*| <= 2 ROOT_REL_TOL * mu * p_c(lo) while
        p* <= 2p, i.e. unless the marginal is flat to ROOT_REL_TOL over
        [p, 2p] (the wide-range atoms of ROADMAP item 6).  Two scores carry
        it: the row's own at lo and the hi minimizer's at mu;
      * float rounding: 16 ulps of mu * p + |E U| on each of four scores.
    With S_n the largest mu * p + |E U| over the subchannel's rows at lo,
    margin_n = V_TIE_RTOL * max(1, -min(0, v_min(lo))) + (4 ROOT_REL_TOL +
    64 ulp) * S_n: a few 1e-9 relative, far below the spread of scores
    across a bracket that still has steps to go.

    Expected utilities are computed where p* > 0 and in closed form at
    p* = 0 (``_expected_at_roots``).
    """
    if not 0.0 <= mu < np.inf:
        raise ValueError("multiplier must be finite and nonnegative")
    rows = (slice(None) if at_lo is None or at_hi is None
            else _survivors(inst, mu, at_lo, at_hi))
    p = get_kernels().power_roots(*_rows(inst, rows), float(mu),
                                  *_thresholds(inst, rows))
    eu = _expected_at_roots(inst, rows, p)
    p_star, exp_util, v = (np.full(inst.shape, fill)
                           for fill in (np.nan, np.nan, np.inf))
    p_star.ravel()[rows], exp_util.ravel()[rows] = p, eu
    v.ravel()[rows] = mu * p - eu

    n_sub = inst.n_subchannels
    p2 = p_star.reshape(n_sub, -1)
    tied = _tie_mask(v.reshape(n_sub, -1))
    win = np.where(tied, p2, np.inf).argmin(axis=1)
    n = np.flatnonzero(tied.any(axis=1))
    indicator = np.zeros(p2.shape)
    x = np.zeros(p2.shape)
    indicator[n, win[n]] = 1.0
    x[n, win[n]] = p2[n, win[n]]
    alloc = AllocationState(indicator.reshape(inst.shape), x.reshape(inst.shape))
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
    mids: list[float]   # every point evaluated in the loop, in order
    lam: float          # weight on the upper end of the budget-meeting blend
    slack: bool         # the lower end spends less than the budget; then
                        # lo == hi, at_lo is at_hi, and mids is empty


def _halve(lo: float, hi: float, kappa: float, a: float, b: float) -> tuple:
    """Halve [lo, hi] until it is at most kappa wide, or its ends are
    adjacent floats (a kappa below their spacing).  A midpoint <= a becomes
    the lower end and one >= b the upper end.  Returns the bracket and the
    first midpoint strictly between a and b, or None once it is final."""
    while hi - lo > kappa:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            return lo, hi, mid
    return lo, hi, None


def _bisect_budget(evaluate, total, budget: float, lo: float, hi: float,
                   kappa: float, estimate=None, start: float = np.nan
                   ) -> _Bracket:
    """Halve [lo, hi] on the power price mu around the budget-binding point.

    ``evaluate(mu, at_a, at_b)`` is the work done at one price, given the
    results at the nearest evaluated points that bind (a, ``total >=
    budget``) and that do not (b), None before there is one; ``total(result)``
    is the power it spends.  The total is nonincreasing in mu, so ``_halve``
    decides any midpoint outside (a, b) unevaluated, and each pass of the
    loop evaluates one point in (a, b) and moves a or b.  That point is the
    undecided midpoint, unless a proposal of the binding price exists:
    ``start`` before any evaluation, then ``estimate(mu, result)`` of the
    last one, computed when needed; one that is not finite keeps the
    proposal before it.  The point is then an end of the proposal's
    final-grid cell strictly inside (a, b): the upper end first before any
    evaluation or after a binding one, the lower end first after one that
    does not bind.  Every evaluated
    point is a node of the halving, so a and b end as the final bracket,
    the one plain halving ends on.  An end never evaluated is evaluated
    last.  ``lam`` is the weight on the upper end at which the blend spends
    ``budget``, clipped to [0, 1].  When the lower end spends less than
    ``budget * (1 - 1e-6)`` (it never moved; the tolerance keeps root noise
    at the exactly binding corner out) the budget is ``slack``: the bracket
    collapses onto lo with lam 0 and no mids, and hi is not evaluated.
    """
    mids = []
    a, at_a, b, at_b = lo, None, hi, None
    end_lo, end_hi = lo, hi
    guess, from_below, last = start, True, None
    while True:
        end_lo, end_hi, point = _halve(end_lo, end_hi, kappa, a, b)
        if point is None:
            break
        if last is not None:
            proposal = estimate(*last[:2])
            if np.isfinite(proposal):
                guess = proposal
            from_below = last[2]
        if np.isfinite(guess):
            cell = _halve(lo, hi, kappa, guess, guess)[:2]
            point = next((end for end in (cell[::-1] if from_below else cell)
                          if a < end < b), point)
        mids.append(point)
        at = evaluate(point, at_a, at_b)
        binding = total(at) >= budget
        if binding:
            a, at_a = point, at
        else:
            b, at_b = point, at
        if estimate is not None:
            last = (point, at, binding)
    if at_a is None:
        at_a = evaluate(a)
    x_lo = total(at_a)
    if x_lo < budget * (1.0 - 1e-6):
        return _Bracket(a, a, at_a, at_a, [], 0.0, True)
    if at_b is None:
        at_b = evaluate(b)
    x_hi = total(at_b)
    lam = 0.0 if x_lo == x_hi else (x_lo - budget) / (x_lo - x_hi)
    return _Bracket(a, b, at_a, at_b, mids, min(max(lam, 0.0), 1.0), False)


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
