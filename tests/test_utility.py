"""Goodput map, utility family, and their derivative/monotonicity contracts.

Expected utilities and marginals come from the production kernels, one
combination at a time (``reference.row_values``); U(g) itself is the
kernels' ``_u_value`` at a = r = 1, where s = -log(1 - g) gives goodput g.
"""

import numpy as np
import pytest

from ofdma_sra import McsTable, ProblemInstance, SnrDistribution, UtilitySpec
from ofdma_sra.dual import _rows
from ofdma_sra.kernels import _u_value, get_kernels
from conftest import combo_instance, mcs_entry, point_mass_instance
from reference import row_values

MCS = (1.0, 0.5, 2.0)  # (a, b, r)
LN4 = 2 * np.log(2.0)  # 1.3862943611198906


def expected_utility(dist, p, mcs=MCS, util=None):
    return row_values(combo_instance(dist, mcs, util), "expected_utilities",
                      0, p)


def marginal_value(dist, p, mcs=MCS, util=None):
    return row_values(combo_instance(dist, mcs, util), "marginal_values", 0, p)[0]


def utility_of_goodput(util, g, k=0):
    """U(g) for user k, through the kernels' utility map."""
    g = np.asarray(g, dtype=float)
    return _u_value(util.code, util.param[k], 1.0, 1.0, -np.log1p(-g))


def test_goodput_trivials():
    # goodput utility, point mass: E{U} = (1 - a e^{-b p gamma}) r
    vals = expected_utility(SnrDistribution.point_mass(1.0), [0.0, 1e6, LN4])
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(2.0)
    assert vals[2] == pytest.approx(1.0)  # (1 - e^-ln2) * 2


def test_goodput_monotone():
    p = np.linspace(0, 10, 50)
    g = expected_utility(SnrDistribution.point_mass(0.7), p)
    assert np.all(np.diff(g) >= 0)
    gammas = np.linspace(0, 5, 50)
    inst = point_mass_instance(gammas[:, None], p_con=1.0,
                               mcs=McsTable(a=[[1.0]], b=[[0.5]], r=[[2.0]]))
    g2 = get_kernels().expected_utilities(*_rows(inst), np.full(gammas.size, 2.0))
    assert np.all(np.diff(g2) >= 0)


def test_expected_utility_point_mass():
    d = SnrDistribution.point_mass(1.0)
    assert expected_utility(d, 0.0)[0] == 0.0
    assert expected_utility(d, LN4)[0] == pytest.approx(1.0)


def test_expected_utility_two_atoms():
    # atoms {(1, .5), (2, .5)} at p = 2 ln 2: 0.5*1.0 + 0.5*1.5 = 1.25
    d = SnrDistribution([1.0, 2.0], [0.5, 0.5])
    assert expected_utility(d, LN4)[0] == pytest.approx(1.25)


def test_expected_utility_pricing_zero_power():
    d = SnrDistribution([0.7, 1.3], [0.4, 0.6])
    u = UtilitySpec.exp_pricing([2.0])
    assert expected_utility(d, 0.0, util=u)[0] == 0.0  # a=1 so g=0 and u(0)=0


def test_marginal_value_point_mass():
    d = SnrDistribution.point_mass(1.0)
    mv = marginal_value(d, [0.0, LN4, 1e4])
    assert mv[0] == pytest.approx(1.0)   # a b r gamma
    assert mv[1] == pytest.approx(0.5)   # * e^-ln2
    assert mv[2] == pytest.approx(0.0, abs=1e-12)


def all_variants(n_users=2):
    return [
        UtilitySpec.goodput(n_users),
        UtilitySpec.weighted_goodput(np.linspace(0.5, 1.5, n_users)),
        UtilitySpec.exp_pricing(np.linspace(0.8, 1.2, n_users)),
        UtilitySpec.capacity_log(0.25, n_users),
    ]


def test_derivative_matches_finite_differences():
    # the marginal kernel is d/dp of the expectation kernel, for every code
    dists = [SnrDistribution.point_mass(1.3),
             SnrDistribution([0.4, 1.1, 2.2], [0.3, 0.3, 0.4])]
    p = np.linspace(0.0, 5.0, 40)
    h = 1e-6
    for util in all_variants(1):
        mcs = (1.0, 1.0, 1.0) if util.variant == "capacity_log" else MCS
        for d in dists:
            fd = (expected_utility(d, p + h, mcs, util)
                  - expected_utility(d, p - h, mcs, util)) / (2 * h)
            an = marginal_value(d, p, mcs, util)
            assert np.max(np.abs(fd - an) / np.abs(an)) < 1e-7


def test_utility_shape_contracts():
    # u' > 0 everywhere, u(0) finite; u'' <= 0 in g for the goodput-shaped
    # variants.  Capacity-log is convex in g but concave in power through the
    # exponential error model, which is the property the solver leans on;
    # that composite concavity is asserted in
    # test_marginal_strictly_decreasing_in_power below.
    g = np.linspace(1e-4, 0.9, 30)
    for util in all_variants():
        for k in range(util.n_users):
            h = 1e-5
            der = (utility_of_goodput(util, g + h, k)
                   - utility_of_goodput(util, g - h, k)) / (2 * h)
            assert np.all(der > 0)
            assert np.isfinite(utility_of_goodput(util, 0.0, k))
            if util.variant != "capacity_log":
                h = 1e-3
                second = (utility_of_goodput(util, g + h, k)
                          - 2 * utility_of_goodput(util, g, k)
                          + utility_of_goodput(util, g - h, k)) / h ** 2
                assert np.all(second <= 1e-8)


def test_capacity_log_concave_in_power():
    # with a = b = r = 1 and a point mass, E{U(g(p))} = scale * log(1 + p*gamma)
    d = SnrDistribution.point_mass(1.7)
    u = UtilitySpec.capacity_log(0.5, 1)
    ones = (1.0, 1.0, 1.0)
    p = np.linspace(0.0, 30.0, 40)
    vals = expected_utility(d, p, ones, u)
    assert np.allclose(vals, 0.5 * np.log1p(p * 1.7), rtol=1e-12)
    mid = expected_utility(d, 0.5 * (p[:-1] + p[1:]), ones, u)
    assert np.all(mid >= 0.5 * (vals[:-1] + vals[1:]) - 1e-12)

    # deep saturation: exp(-p*gamma) underflows to 0 at these powers, so only
    # the log-space branch of the kernels keeps values and marginals finite
    deep = SnrDistribution([0.3, 1.7, 4.0], [0.25, 0.5, 0.25])
    p_deep = np.array([0.0, 250.0, 800.0, 3000.0])
    pg = np.multiply.outer(p_deep, deep.values)
    vals = expected_utility(deep, p_deep, ones, u)
    assert np.allclose(vals, 0.5 * np.log1p(pg) @ deep.weights, rtol=1e-12)
    mv = marginal_value(deep, p_deep, ones, u)
    assert np.all(np.isfinite(mv))
    assert np.allclose(mv, 0.5 * (deep.values / (1.0 + pg)) @ deep.weights,
                       rtol=1e-12)
    # the batched per-instance maps behind the solvers take the same branch
    inst = ProblemInstance(mcs=McsTable.capacity(1), utility=u,
                           dists=SnrDistribution(np.tile(deep.values, (4, 1, 1)),
                                                 np.tile(deep.weights, (4, 1, 1))),
                           p_con=1.0)
    rows = _rows(inst)
    assert np.allclose(get_kernels().expected_utilities(*rows, p_deep), vals,
                       rtol=1e-12)
    assert np.allclose(get_kernels().marginal_values(*rows, p_deep)[0], mv,
                       rtol=1e-12)


def test_marginal_strictly_decreasing_in_power():
    dists = [SnrDistribution.point_mass(1.3),
             SnrDistribution([0.4, 1.1, 2.2], [0.3, 0.3, 0.4])]
    p = np.linspace(0.0, 20.0, 60)
    for util in all_variants(1):
        mcs = (1.0, 1.0, 1.0) if util.variant == "capacity_log" else MCS
        for d in dists:
            mv = marginal_value(d, p, mcs, util)
            assert np.all(np.diff(mv) < 0)


def test_expected_utility_concave_in_power():
    d = SnrDistribution.point_mass(0.9)
    p = np.linspace(0.0, 12.0, 25)
    mid = expected_utility(d, 0.5 * (p[:-1] + p[1:]))
    ends = 0.5 * (expected_utility(d, p[:-1]) + expected_utility(d, p[1:]))
    assert np.all(mid >= ends - 1e-12)


def test_capacity_log_domain():
    # capacity-log with r > 1 would let goodput reach 1: the instance refuses
    with pytest.raises(ValueError):
        ProblemInstance(
            mcs=McsTable.qam(1, 2), utility=UtilitySpec.capacity_log(1.0, 1),
            dists=SnrDistribution.point_mass([[1.0]]), p_con=1.0)


def test_mcs_table_defaults():
    t = McsTable.qam(3, 15)
    assert t.n_users == 3 and t.n_mcs == 15
    m = np.arange(1, 16)
    assert np.allclose(t.b[0], 1.5 / (2.0 ** (m + 1) - 1))
    assert np.allclose(t.r[0], m + 1)
    assert np.all(t.a == 1.0)
    cap = McsTable.capacity(2)
    assert cap.n_mcs == 1 and mcs_entry(cap, 0, 0) == (1.0, 1.0, 1.0)


def test_mcs_table_validation():
    with pytest.raises(ValueError):
        McsTable(a=[[1.5]], b=[[1.0]], r=[[1.0]])
    with pytest.raises(ValueError):
        McsTable(a=[[0.5]], b=[[-1.0]], r=[[1.0]])


def test_utility_spec_validation():
    with pytest.raises(ValueError):
        UtilitySpec("nope", [1.0])
    with pytest.raises(ValueError):
        UtilitySpec.weighted_goodput([0.0, 1.0])
