"""MCS error-model table and the closed family of concave utilities.

A codeword sent to user k at MCS m with power p over SNR gamma fails with
probability eps = a * exp(-b*p*gamma) and carries r bits, so the goodput is

    g(p, gamma) = (1 - a * exp(-b*p*gamma)) * r.

Utilities U(g) are restricted to a closed family -- identity, weighted,
exponential pricing 1-exp(-w*g), and capacity-log scale*log(1-log(1-g)) --
so that U' > 0 and U'' <= 0 are guaranteed by construction and the dual
solver's monotone root-finds stay safe.  The capacity-log variant with
a = b = r = 1 turns expected utility into scale * E{log(1 + p*gamma)}.
U and U' are evaluated only inside ``kernels``, from the integer codes below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def __repr__(self):  # pragma: no cover
        return f"UtilitySpec({self.variant!r}, K={self.n_users})"
