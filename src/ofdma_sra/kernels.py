"""Hot numeric kernels over flattened (combination, atom) arrays.

Every quantity the dual machinery needs reduces to three batched maps over
"combinations" (rows pairing one SNR atom set with one MCS entry and one
per-user utility parameter):

* ``marginal_values``    -- a*b*r * E{ U'(g(p, gamma)) * gamma * exp(-b*p*gamma) },
  the derivative of expected utility w.r.t. power,
* ``expected_utilities`` -- E{ U(g(p, gamma)) },
* ``power_roots``        -- per-row bisection for the power where the marginal
  equals a given multiplier ``mu`` (0 when ``mu`` is at/above the activation
  threshold, i.e. the marginal at p=0).

Utility variants are encoded as integers (see ``utility.UtilitySpec``):
0 identity, 1 weighted, 2 exponential pricing ``1-exp(-theta*g)``,
3 capacity-log ``theta*log(1-log(1-g))``.  The capacity-log branch is
evaluated in log space when r == 1 so that deep-saturation powers
(``exp(-b*p*gamma)`` underflowing to 0) stay finite.

Each map is vectorized numpy.  The marginal and the expectation are
evaluated ``_BLOCK_ROWS`` rows at a time into one preallocated output, which
caps their (rows, atoms) temporaries at full scale; each row's sum is the
same as in one full-size pass, so the results are bit-identical.

``power_roots`` evaluates the marginal at p=0 over every row; rows at or
below ``mu`` get 0 and never enter the loops.  The doubling of the upper
bracket and the bisection then run on a working set (the row arrays, ``lo``,
``hi`` and each row's output position) from which rows drop once they
converge.  The working set is gathered anew only when at most half of it is
still unfinished, at entry and after each bisection pass: a gather copies
the (rows, atoms) arrays, and gathering a larger share would hold more
memory than the loops save.  Every per-row operation is the one a full-row
bisection performs, so the roots are bit-identical to it.

Callers look the maps up through ``get_kernels()`` at call time, so that a
profiler can wrap the namespace it returns.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

ROOT_REL_TOL = 1e-9
ROOT_MAX_ITER = 200
_GROW_MAX = 200
_BLOCK_ROWS = 2048


def _u_value(ucode, theta, a, r, s):
    """U(g) with g = (1 - a*exp(-s))*r, s = b*p*gamma (arrays broadcast)."""
    t = np.exp(-s)
    g = (1.0 - a * t) * r
    if ucode == 0:
        return g
    if ucode == 1:
        return theta * g
    if ucode == 2:
        return -np.expm1(-theta * g)
    one_m_g = (1.0 - r) + r * a * t
    safe = np.where(one_m_g > 0.0, one_m_g, 1.0)
    plain = theta * np.log(1.0 - np.log(safe))
    exact = theta * np.log(1.0 - np.log(a) + s)
    return np.where(r == 1.0, exact, plain)


def _u_der_t(ucode, theta, a, r, s):
    """U'(g) * exp(-s); the product is what the marginal integrand needs."""
    t = np.exp(-s)
    if ucode == 0:
        return t
    if ucode == 1:
        return theta * t
    if ucode == 2:
        g = (1.0 - a * t) * r
        return theta * np.exp(-theta * g) * t
    one_m_g = (1.0 - r) + r * a * t
    safe = np.where(one_m_g > 0.0, one_m_g, 1.0)
    plain = theta * t / (safe * (1.0 - np.log(safe)))
    exact = theta / (a * (1.0 - np.log(a) + s))
    return np.where(r == 1.0, exact, plain)


def _marginal_rows(gamma, w, a, b, r, ucode, uparam, p):
    s = b[:, None] * p[:, None] * gamma
    der_t = _u_der_t(ucode, uparam[:, None], a[:, None], r[:, None], s)
    return a * b * r * np.sum(w * gamma * der_t, axis=1)


def _expected_rows(gamma, w, a, b, r, ucode, uparam, p):
    s = b[:, None] * p[:, None] * gamma
    vals = _u_value(ucode, uparam[:, None], a[:, None], r[:, None], s)
    return np.sum(w * vals, axis=1)


def _in_blocks(rows_fn, gamma, w, a, b, r, ucode, uparam, p):
    """rows_fn over at most _BLOCK_ROWS rows at a time."""
    if gamma.shape[0] <= _BLOCK_ROWS:
        return rows_fn(gamma, w, a, b, r, ucode, uparam, p)
    out = np.empty(gamma.shape[0])
    for i in range(0, out.size, _BLOCK_ROWS):
        blk = slice(i, i + _BLOCK_ROWS)
        out[blk] = rows_fn(gamma[blk], w[blk], a[blk], b[blk], r[blk], ucode,
                           uparam[blk], p[blk])
    return out


def _marginal(gamma, w, a, b, r, ucode, uparam, p):
    return _in_blocks(_marginal_rows, gamma, w, a, b, r, ucode, uparam, p)


def _expected(gamma, w, a, b, r, ucode, uparam, p):
    return _in_blocks(_expected_rows, gamma, w, a, b, r, ucode, uparam, p)


def _gather(work, todo):
    """The working set cut to its unfinished rows, all marked unfinished."""
    keep = np.flatnonzero(todo)
    return [arr[keep] for arr in work], np.ones(keep.size, dtype=bool)


def _power_roots(gamma, w, a, b, r, ucode, uparam, mu):
    n = gamma.shape[0]
    out = np.zeros(n)
    todo = _marginal(gamma, w, a, b, r, ucode, uparam, np.zeros(n)) > mu
    left = np.count_nonzero(todo)
    if left == 0:
        return out
    # working set: the row arrays, the bracket and each row's output position;
    # todo marks its unfinished rows, gathered once at most half are left
    lo, hi, pos = np.zeros(n), np.ones(n), np.arange(n)
    if 2 * left <= n:
        (gamma, w, a, b, r, uparam, lo, hi, pos), todo = _gather(
            [gamma, w, a, b, r, uparam, lo, hi, pos], todo)
    for _ in range(_GROW_MAX):
        mv = _marginal(gamma, w, a, b, r, ucode, uparam, hi)
        grow = todo & (mv > mu)
        if not grow.any():
            break
        hi[grow] *= 2.0
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        mv = _marginal(gamma, w, a, b, r, ucode, uparam, mid)
        done = todo & (np.abs(mv - mu) <= ROOT_REL_TOL * mu)
        out[pos[done]] = mid[done]
        todo &= ~done
        left = np.count_nonzero(todo)
        if left == 0:
            return out
        up = todo & (mv > mu)
        lo[up] = mid[up]
        dn = todo & (mv <= mu)
        hi[dn] = mid[dn]
        if 2 * left <= todo.size:
            (gamma, w, a, b, r, uparam, lo, hi, pos), todo = _gather(
                [gamma, w, a, b, r, uparam, lo, hi, pos], todo)
    out[pos[todo]] = 0.5 * (lo + hi)[todo]
    return out


_KERNELS = SimpleNamespace(
    marginal_values=_marginal,
    expected_utilities=_expected,
    power_roots=_power_roots,
)


def get_kernels():
    """The kernel namespace (looked up per call, never bound at import)."""
    return _KERNELS
