"""Hot numeric kernels over flattened (combination, atom) arrays.

Every quantity the dual machinery needs reduces to three batched maps over
"combinations" (rows pairing one SNR atom set with one MCS entry and one
per-user utility parameter).  ``get_kernels()`` returns them as one
namespace:

* ``marginal_values``    -- (2, rows): the marginal
  a*b*r * E{ U'(g(p, gamma)) * gamma * exp(-b*p*gamma) }, the derivative of
  expected utility w.r.t. power, and its slope (derivative in p),
* ``expected_utilities`` -- E{ U(g(p, gamma)) },
* ``power_roots``        -- per-row power where the marginal equals a given
  multiplier ``mu`` (0 when ``mu`` is at/above the activation threshold,
  i.e. the marginal at p=0).

Each map takes the positional arguments ``(gamma, w, a, b, r, ucode,
uparam)`` that ``dual.ProblemInstance.flat()`` packs and ``dual._rows``
selects, followed by its own: the powers ``p``, or ``mu`` and the marginal
and slope at p=0 for ``power_roots``.

Utility variants are encoded as integers (see ``utility.UtilitySpec``):
0 identity, 1 weighted, 2 exponential pricing ``1-exp(-theta*g)``,
3 capacity-log ``theta*log(1-log(1-g))``.  The capacity-log branch is
evaluated in log space when r == 1 so that deep-saturation powers
(``exp(-b*p*gamma)`` underflowing to 0) stay finite.

Each map is vectorized numpy.  ``marginal_values`` and
``expected_utilities`` are evaluated ``_BLOCK_ROWS`` rows at a time into one
preallocated output, which caps their (rows, atoms) temporaries at full
scale; each row's sum is the same as in one full-size pass, so the results
are bit-identical to it.

``power_roots`` takes Newton steps on ``log(marginal(p) / mu)`` from p=0.
That log is convex in p for codes 0-2 and for code 3 at r == 1, so the steps
approach the root from below.  The caller passes the marginal and slope at
p=0 (the activation thresholds, cached per instance by ``dual``): rows at or
below ``mu`` get 0, and the first step needs no pass.  Each row keeps a
bracket ``[lo, hi]``, ``hi`` infinite until a step lands at or below ``mu``;
a step that is not finite or leaves the bracket is replaced by bisection, or
by doubling while ``hi`` is infinite.  A row is done once
``|marginal(p) - mu| <= ROOT_REL_TOL * mu``.  Rows still open after
``ROOT_MAX_ITER`` steps (an infinite root: ``mu`` = 0 and a marginal that
never reaches 0) keep their last power, and the call raises one
``RuntimeWarning`` naming how many rows failed.  Rows drop out of the working
set as they converge; it is gathered anew only when at most half of it is
unfinished, at entry and after each pass, because a gather copies the (rows,
atoms) arrays and gathering a larger share would hold more memory than the
loop saves.

Callers look the maps up through ``get_kernels()`` at call time, so that a
profiler can wrap the namespace it returns.
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np

ROOT_REL_TOL = 1e-9
ROOT_MAX_ITER = 200
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
    """U'(g) * exp(-s), the product the marginal integrand needs, and its
    derivative in s."""
    t = np.exp(-s)
    if ucode <= 1:
        der_t = t if ucode == 0 else theta * t
        return der_t, -der_t
    if ucode == 2:
        g = (1.0 - a * t) * r
        der_t = theta * np.exp(-theta * g) * t
        return der_t, -der_t * (1.0 + theta * a * r * t)
    one_m_g = (1.0 - r) + r * a * t
    safe = np.where(one_m_g > 0.0, one_m_g, 1.0)
    log_q = np.log(safe)
    log_den = 1.0 - np.log(a) + s  # 1 - log(1 - g) in log space, at r == 1
    der_t = np.where(r == 1.0, theta / (a * log_den),
                     theta * t / (safe * (1.0 - log_q)))
    plain = der_t * (r * a * t * -log_q / (safe * (1.0 - log_q)) - 1.0)
    return der_t, np.where(r == 1.0, -der_t / log_den, plain)


def _marginal_slope_rows(gamma, w, a, b, r, ucode, uparam, p):
    """(2, rows): the marginal and its derivative in p."""
    s = b[:, None] * p[:, None] * gamma
    theta, a2, r2 = uparam[:, None], a[:, None], r[:, None]
    der_t, slope = _u_der_t(ucode, theta, a2, r2, s)
    # (rows, atoms) temporaries go as soon as they are used: at full scale
    # this map's peak sets the process's peak memory
    del s
    wg = w * gamma
    mv = a * b * r * np.sum(wg * der_t, axis=1)
    del der_t
    wg *= gamma
    slope *= wg
    return np.stack((mv, a * b * b * r * np.sum(slope, axis=1)))


def _expected_rows(gamma, w, a, b, r, ucode, uparam, p):
    s = b[:, None] * p[:, None] * gamma
    vals = _u_value(ucode, uparam[:, None], a[:, None], r[:, None], s)
    return np.sum(w * vals, axis=1)


def _in_blocks(rows_fn, gamma, w, a, b, r, ucode, uparam, p):
    """rows_fn over at most _BLOCK_ROWS rows at a time (rows on the last axis)."""
    if gamma.shape[0] <= _BLOCK_ROWS:
        return rows_fn(gamma, w, a, b, r, ucode, uparam, p)
    out = None
    for i in range(0, gamma.shape[0], _BLOCK_ROWS):
        blk = slice(i, i + _BLOCK_ROWS)
        part = rows_fn(gamma[blk], w[blk], a[blk], b[blk], r[blk], ucode,
                       uparam[blk], p[blk])
        if out is None:
            out = np.empty(part.shape[:-1] + gamma.shape[:1])
        out[..., blk] = part
    return out


def _marginal_slope(gamma, w, a, b, r, ucode, uparam, p):
    return _in_blocks(_marginal_slope_rows, gamma, w, a, b, r, ucode, uparam, p)


def _expected(gamma, w, a, b, r, ucode, uparam, p):
    return _in_blocks(_expected_rows, gamma, w, a, b, r, ucode, uparam, p)


def _gather(work, todo):
    """The working set cut to its unfinished rows, all marked unfinished."""
    keep = np.flatnonzero(todo)
    return [arr[keep] for arr in work], np.ones(keep.size, dtype=bool)


def _power_roots(gamma, w, a, b, r, ucode, uparam, mu, mv0, dmv0):
    n = gamma.shape[0]
    out = np.zeros(n)
    todo = mv0 > mu
    left = np.count_nonzero(todo)
    if left == 0:
        return out
    # working set: row arrays, last power, marginal and slope there, bracket
    # and output position; todo marks its unfinished rows
    work = [gamma, w, a, b, r, uparam, np.zeros(n), mv0, dmv0, np.zeros(n),
            np.full(n, np.inf), np.arange(n)]
    if 2 * left <= n:
        work, todo = _gather(work, todo)
    gamma, w, a, b, r, uparam, p, mv, dmv, lo, hi, pos = work
    for _ in range(ROOT_MAX_ITER):
        with np.errstate(all="ignore"):
            step = p - np.log(mv / mu) * mv / dmv
            fallback = np.where(hi == np.inf, np.maximum(2.0 * lo, 1.0),
                                0.5 * (lo + hi))
        inside = np.isfinite(step) & (step > lo) & (step < hi)
        p = np.where(inside, step, fallback)
        mv, dmv = _marginal_slope(gamma, w, a, b, r, ucode, uparam, p)
        done = todo & (np.abs(mv - mu) <= ROOT_REL_TOL * mu)
        out[pos[done]] = p[done]
        todo &= ~done
        left = np.count_nonzero(todo)
        if left == 0:
            return out
        above = mv > mu
        lo = np.where(above, p, lo)
        hi = np.where(above, hi, p)
        if 2 * left <= todo.size:
            work, todo = _gather(
                [gamma, w, a, b, r, uparam, p, mv, dmv, lo, hi, pos], todo)
            gamma, w, a, b, r, uparam, p, mv, dmv, lo, hi, pos = work
    out[pos[todo]] = p[todo]
    warnings.warn(f"power_roots: {left} of {n} rows did not converge in "
                  f"{ROOT_MAX_ITER} steps", RuntimeWarning, stacklevel=2)
    return out


_KERNELS = SimpleNamespace(
    marginal_values=_marginal_slope,
    expected_utilities=_expected,
    power_roots=_power_roots,
)


def get_kernels():
    """The kernel namespace (looked up per call, never bound at import)."""
    return _KERNELS
