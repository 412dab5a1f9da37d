"""The budget search ``dual._bisect_budget`` against plain halving.

Synthetic nonincreasing totals stand in for a solver's spend: step functions
whose plateaus may sit exactly at the budget, and piecewise-linear
continuous ones, with or without such a plateau.  Every operation on a
float is correctly rounded, so each total is nonincreasing in floats too.
The proposals of the binding price are adversarial.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_sra import dual

SLACK_RTOL = 1e-6
HALVE = dual._halve


def plain_halving(total, budget, lo, hi, kappa):
    """Reference: evaluate every midpoint, then each end that never moved;
    a lower end spending less than budget * (1 - SLACK_RTOL) collapses the
    bracket onto it.  Returns (lo, hi, lam, slack, at_lo, at_hi) and the
    points evaluated, in order."""
    points = []

    def at(mu):
        points.append(mu)
        return mu, total(mu)

    at_lo = at_hi = None
    while hi - lo > kappa:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        result = at(mid)
        if result[1] >= budget:
            lo, at_lo = mid, result
        else:
            hi, at_hi = mid, result
    if at_lo is None:
        at_lo = at(lo)
    if at_lo[1] < budget * (1.0 - SLACK_RTOL):
        return (lo, lo, 0.0, True, at_lo, at_lo), points
    if at_hi is None:
        at_hi = at(hi)
    x_lo, x_hi = at_lo[1], at_hi[1]
    lam = 0.0 if x_lo == x_hi else (x_lo - budget) / (x_lo - x_hi)
    return (lo, hi, min(max(lam, 0.0), 1.0), False, at_lo, at_hi), points


def halving_node(lo, hi, depth, u):
    """The midpoint at the given depth of the halving of [lo, hi] towards
    lo + u * (hi - lo)."""
    target = lo + u * (hi - lo)
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        if mid <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def search_case(draw):
    """(total, budget, lo, hi, kappa, binding price)."""
    lo = draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-3.0, 1.0))]))
    width = 10.0 ** draw(st.floats(-6.0, 2.0))
    hi = lo + width
    kappa = 10.0 ** draw(st.floats(-300.0, math.log10(4.0 * width)))
    budget = 10.0 ** draw(st.floats(-1.0, 2.0))

    def price():
        if draw(st.booleans()):
            return halving_node(lo, hi, draw(st.integers(0, 60)),
                                draw(st.floats(0.0, 1.0)))
        return lo + width * draw(st.floats(-0.25, 1.25))

    if draw(st.booleans()):  # a step function
        steps = sorted(price() for _ in range(draw(st.integers(1, 5))))
        levels = sorted((budget * draw(st.sampled_from(
            [0.0, 0.5, 1.0 - 1e-7, 1.0, 1.0, 1.0 + 1e-12, 2.0, 10.0]))
            for _ in range(len(steps) + 1)), reverse=True)

        def total(mu):
            return levels[sum(step <= mu for step in steps)]

        below = [t for t, x in zip(steps, levels[1:]) if x < budget]
        star = (-math.inf if levels[0] < budget
                else below[0] if below else math.inf)
    else:  # continuous, flat at the budget on [c1, c2]
        c1, c2 = sorted((price(), price()))
        s1, s2 = (budget / width * 10.0 ** draw(st.floats(-3.0, 3.0))
                  for _ in range(2))

        def total(mu):
            return budget + s1 * max(c1 - mu, 0.0) - s2 * max(mu - c2, 0.0)

        star = c2
    return total, budget, lo, hi, kappa, star


class Search:
    """Runs ``_bisect_budget`` and checks each call it makes: every loop
    evaluation lies strictly inside the (a, b) known before it and is given
    the results there, no point is evaluated twice, a proposal is asked for
    the last evaluation, and each loop halving resumes where the last one
    stopped."""

    def __init__(self, total, budget, lo, hi, kappa):
        self.total, self.budget, self.kappa = total, budget, kappa
        self.lo, self.hi = lo, hi
        self.a, self.at_a, self.b, self.at_b = lo, None, hi, None
        self.points, self.loop_points, self.end_points = [], [], []
        self.halvings = []

    def evaluate(self, mu, *ends):
        assert mu not in self.points
        self.points.append(mu)
        result = mu, self.total(mu)
        if not ends:  # an end that was never evaluated
            assert (mu, None) in ((self.a, self.at_a), (self.b, self.at_b))
            self.end_points.append(mu)
            return result
        assert self.a < mu < self.b
        assert ends == (self.at_a, self.at_b)
        self.loop_points.append(mu)
        if result[1] >= self.budget:
            self.a, self.at_a = mu, result
        else:
            self.b, self.at_b = mu, result
        return result

    def halve(self, lo, hi, kappa, a, b):
        out = HALVE(lo, hi, kappa, a, b)
        if a != b:  # the loop's halving, not a proposal's final cell
            assert (lo, hi) == (self.halvings[-1][:2] if self.halvings
                                else (self.lo, self.hi))
            self.halvings.append(out)
        return out

    def run(self, estimate=None, start=math.nan):
        with mock.patch.object(dual, "_halve", self.halve):
            br = dual._bisect_budget(self.evaluate, lambda r: r[1], self.budget,
                                     self.lo, self.hi, self.kappa, estimate,
                                     start)
        final = self.halvings[-1]
        assert final[2] is None
        if br.slack:
            assert br.mids == [] and self.hi not in self.end_points
            assert (br.lo, br.hi) == (final[0], final[0])
        else:
            assert br.mids == self.loop_points
            assert (br.lo, br.hi) == final[:2]
        return (br.lo, br.hi, br.lam, br.slack, br.at_lo, br.at_hi)


PROPOSALS = ["nan", "inf", "-inf", "below", "above", "lo", "hi", "a", "b",
             "binding", "binding-", "binding+", "random"]


def proposal(data, search, star):
    kind = data.draw(st.sampled_from(PROPOSALS))
    width = search.hi - search.lo
    return {
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "below": search.lo - width, "above": search.hi + width,
        "lo": search.lo, "hi": search.hi, "a": search.a, "b": search.b,
        "binding": star, "binding-": math.nextafter(star, -math.inf),
        "binding+": math.nextafter(star, math.inf),
        "random": search.lo + width * data.draw(st.floats(0.0, 1.0)),
    }[kind]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(search_case(), st.data())
def test_guided_search_is_plain_halving(case, data):
    total, budget, lo, hi, kappa, star = case
    want, halving_points = plain_halving(total, budget, lo, hi, kappa)

    plain = Search(total, budget, lo, hi, kappa)
    assert plain.run() == want
    assert plain.points == halving_points

    guided = Search(total, budget, lo, hi, kappa)
    estimate = start = None
    if data.draw(st.booleans()):
        def estimate(mu, result):
            assert (mu, result) == (guided.points[-1], (mu, total(mu)))
            return proposal(data, guided, star)
    if data.draw(st.booleans()):
        start = proposal(data, guided, star)
    args = (estimate,) if start is None else (estimate, start)
    assert guided.run(*args) == want
