"""MCS error-model table and the closed family of concave utilities.

A codeword sent to user k at MCS m with power p over SNR gamma fails with
probability eps = a * exp(-b*p*gamma) and carries r bits, so the goodput is

    g(p, gamma) = (1 - a * exp(-b*p*gamma)) * r.

Utilities U(g) are restricted to a closed family -- identity, weighted,
exponential pricing 1-exp(-w*g), and capacity-log scale*log(1-log(1-g)) --
so that U' > 0 and U'' <= 0 are guaranteed by construction and the dual
solver's monotone root-finds stay safe.  The capacity-log variant with
a = b = r = 1 turns expected utility into scale * E{log(1 + p*gamma)}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snr import SnrDistribution

UTILITY_CODES = {
    "goodput": 0,
    "weighted_goodput": 1,
    "exp_pricing": 2,
    "capacity_log": 3,
}


@dataclass(frozen=True)
class McsTable:
    """Per-(user, MCS) error constants a in (0,1], b > 0 and rate r > 0."""

    a: np.ndarray  # (K, M)
    b: np.ndarray  # (K, M)
    r: np.ndarray  # (K, M)

    def __post_init__(self):
        a, b, r = (np.asarray(x, dtype=float) for x in (self.a, self.b, self.r))
        if not (a.shape == b.shape == r.shape) or a.ndim != 2:
            raise ValueError("a, b, r must share one (K, M) shape")
        if np.any(a <= 0.0) or np.any(a > 1.0):
            raise ValueError("error-floor constants a must lie in (0, 1]")
        if np.any(b <= 0.0) or np.any(r <= 0.0):
            raise ValueError("decay constants b and rates r must be positive")
        for name, arr in (("a", a), ("b", b), ("r", r)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_users(self) -> int:
        return self.a.shape[0]

    @property
    def n_mcs(self) -> int:
        return self.a.shape[1]

    def entry(self, k: int, m: int) -> tuple[float, float, float]:
        return float(self.a[k, m]), float(self.b[k, m]), float(self.r[k, m])

    @classmethod
    def qam(cls, n_users: int, n_mcs: int = 15) -> "McsTable":
        """Uncoded 2^(m+1)-QAM family: a=1, b=1.5/(2^(m+1)-1), r=m+1, m=1..n_mcs."""
        m = np.arange(1, n_mcs + 1, dtype=float)
        b = 1.5 / (2.0 ** (m + 1) - 1.0)
        r = m + 1.0
        return cls(
            a=np.ones((n_users, n_mcs)),
            b=np.tile(b, (n_users, 1)),
            r=np.tile(r, (n_users, 1)),
        )

    @classmethod
    def capacity(cls, n_users: int) -> "McsTable":
        """Single pseudo-MCS with a = b = r = 1 (for the capacity-log utility)."""
        ones = np.ones((n_users, 1))
        return cls(a=ones, b=ones.copy(), r=ones.copy())


class UtilitySpec:
    """One utility variant with its per-user parameter vector.

    ``param[k]`` is the weight w_k for the weighted/pricing variants and the
    scale for capacity-log; it is ignored (fixed to 1) for plain goodput.
    """

    __slots__ = ("variant", "param")

    def __init__(self, variant: str, param):
        if variant not in UTILITY_CODES:
            raise ValueError(f"unknown utility variant {variant!r}")
        param = np.atleast_1d(np.asarray(param, dtype=float))
        if np.any(param <= 0.0) or not np.all(np.isfinite(param)):
            raise ValueError("utility parameters must be positive and finite")
        param.flags.writeable = False
        self.variant = variant
        self.param = param

    @classmethod
    def goodput(cls, n_users: int) -> "UtilitySpec":
        return cls("goodput", np.ones(n_users))

    @classmethod
    def weighted_goodput(cls, weights) -> "UtilitySpec":
        return cls("weighted_goodput", weights)

    @classmethod
    def exp_pricing(cls, weights) -> "UtilitySpec":
        return cls("exp_pricing", weights)

    @classmethod
    def capacity_log(cls, scale: float, n_users: int) -> "UtilitySpec":
        return cls("capacity_log", np.full(n_users, float(scale)))

    @property
    def code(self) -> int:
        return UTILITY_CODES[self.variant]

    @property
    def n_users(self) -> int:
        return self.param.size

    def value(self, g, k: int = 0):
        """U(g); g may be a scalar or array, k selects the user parameter."""
        g = np.asarray(g, dtype=float)
        theta = self.param[k]
        if self.variant == "goodput":
            return g + 0.0
        if self.variant == "weighted_goodput":
            return theta * g
        if self.variant == "exp_pricing":
            return -np.expm1(-theta * g)
        if np.any(g >= 1.0):
            raise ValueError("capacity-log utility requires goodput < 1")
        return theta * np.log(1.0 - np.log1p(-g))

    def derivative(self, g, k: int = 0):
        g = np.asarray(g, dtype=float)
        theta = self.param[k]
        if self.variant == "goodput":
            return np.ones_like(g)
        if self.variant == "weighted_goodput":
            return np.full_like(g, theta)
        if self.variant == "exp_pricing":
            return theta * np.exp(-theta * g)
        if np.any(g >= 1.0):
            raise ValueError("capacity-log utility requires goodput < 1")
        one_m_g = 1.0 - g
        return theta / (one_m_g * (1.0 - np.log(one_m_g)))

    def __repr__(self):  # pragma: no cover
        return f"UtilitySpec({self.variant!r}, K={self.n_users})"


def goodput(p, gamma, mcs: tuple[float, float, float]):
    """(1 - a*exp(-b*p*gamma)) * r, elementwise over p and gamma."""
    a, b, r = mcs
    return (1.0 - a * np.exp(-b * np.asarray(p, dtype=float) * gamma)) * r


def expected_utility(dist: SnrDistribution, p, mcs, util: UtilitySpec,
                     k: int = 0):
    """E{ U(g(p, gamma)) } under the atom distribution; exact finite sum.

    ``p`` may be a scalar or a vector of powers (one expectation per entry).
    Evaluated through the same saturation-safe forms as the batch kernels.
    """
    from .kernels import _u_value

    a, b, r = mcs
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    s = b * np.multiply.outer(p, dist.values)
    vals = _u_value(util.code, util.param[k], a, r, s) @ dist.weights
    return float(vals) if scalar else vals


def marginal_value(dist: SnrDistribution, p, mcs, util: UtilitySpec,
                   k: int = 0):
    """d/dp of expected utility: a*b*r * E{ U'(g) * gamma * exp(-b*p*gamma) }.

    Strictly decreasing in p, which is what makes the power root-find safe.
    """
    from .kernels import _u_der_t

    a, b, r = mcs
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    s = b * np.multiply.outer(p, dist.values)
    der_t = _u_der_t(util.code, util.param[k], a, r, s)
    out = a * b * r * ((dist.values * der_t) @ dist.weights)
    return float(out) if scalar else out


def indicator_cost(share: float, actual_power: float, dist: SnrDistribution,
                   mcs, util: UtilitySpec, k: int = 0) -> float:
    """share * F(share, x): the perspective-style objective term.

    F is -E{U(g(x/share, gamma))} for share > 0 and 0 at share = 0; the
    product is jointly convex in (share, x), which the property tests check.
    """
    if share <= 0.0:
        return 0.0
    return -share * expected_utility(dist, actual_power / share, mcs, util, k)
