"""Dual machinery: power roots, scores, winner sets, multiplier bounds."""

import numpy as np
import pytest

from ofdma_sra import (AllocationState, ProblemInstance, SnrDistribution,
                       UtilitySpec, allocation_utility, evaluate_mu, mu_bounds)
from ofdma_sra.dual import _tie_mask
from ofdma_sra.kernels import get_kernels
from conftest import (closed_form_power, closed_form_v, combo_instance,
                      mcs_entry, point_mass_instance, single_combo_instance)
from reference import (check_allocation, exhaustive_lagrangian_min,
                       indicator_cost, lagrangian)

MCS = (1.0, 0.5, 2.0)
LN4 = 2 * np.log(2.0)


def total_power(inst, mu):
    """X*(mu) under the min-power tie rule."""
    return evaluate_mu(inst, mu).total_power_min


def winner_sets(inst, mu):
    """Per subchannel, the (user, MCS) pairs tied for the least score at mu."""
    v2 = evaluate_mu(inst, mu).v.reshape(inst.n_subchannels, -1)
    return [[divmod(int(i), inst.n_mcs) for i in np.flatnonzero(row)]
            for row in _tie_mask(v2)]


def test_power_root_closed_form():
    inst = single_combo_instance()

    def root(mu):
        return evaluate_mu(inst, mu).p_star[0, 0, 0]

    assert root(0.5) == pytest.approx(LN4, rel=1e-8)
    assert root(1.0) == 0.0    # threshold a b r E{gamma}
    assert root(1.5) == 0.0
    with pytest.raises(ValueError):
        evaluate_mu(inst, np.nan)


def test_power_root_matches_closed_form_on_grid(rng):
    for _ in range(25):
        gamma = rng.uniform(0.2, 3.0)
        a, b, r = 1.0, rng.uniform(0.1, 1.0), rng.uniform(1.0, 4.0)
        mu = rng.uniform(1e-3, 1.2)
        inst = single_combo_instance(gamma, a, b, r)
        got = evaluate_mu(inst, mu).p_star[0, 0, 0]
        want = closed_form_power(gamma, a, b, r, mu)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_power_root_continuity_and_monotone():
    inst = combo_instance(SnrDistribution([0.5, 1.5], [0.5, 0.5]))
    mus = np.linspace(0.05, 0.9, 400)
    roots = np.array([evaluate_mu(inst, m).p_star[0, 0, 0] for m in mus])
    assert np.all(np.diff(roots) <= 1e-9)            # nonincreasing in mu
    assert np.max(np.abs(np.diff(roots))) < 0.25     # no jumps on a fine grid


def test_v_metric_hand_value():
    inst = single_combo_instance()
    # -1.0 + 0.5 * 2 ln 2 = ln 2 - 1
    assert evaluate_mu(inst, 0.5).v[0, 0, 0] == pytest.approx(np.log(2) - 1,
                                                              abs=1e-8)
    assert evaluate_mu(inst, 1.5).v[0, 0, 0] == 0.0  # p* = 0, a=1: -u(0) = 0


def test_winner_sets_singleton_and_tie():
    inst = single_combo_instance(p_con=4.0)
    assert winner_sets(inst, 0.5)[0] == [(0, 0)]

    inst2 = point_mass_instance([[1.0, 1.0]], p_con=4.0)  # identical users
    ks = {k for k, _ in winner_sets(inst2, 0.3)[0]}
    assert ks == {0, 1}  # both users tie by symmetry


def test_winner_sets_against_v_table(rng):
    # distinct point masses: the winner must argmin the closed-form V table
    for _ in range(10):
        gammas = rng.uniform(0.3, 3.0, size=(2, 2))
        inst = point_mass_instance(gammas, p_con=4.0)
        mu = rng.uniform(0.05, 0.5)
        ws = winner_sets(inst, mu)
        for n in range(2):
            table = np.array([[closed_form_v(gammas[n, k],
                                             *mcs_entry(inst.mcs, k, m), mu)
                               for m in range(inst.n_mcs)]
                              for k in range(inst.n_users)])
            if not ws[n]:
                assert table.min() > -1e-9
                continue
            k, m = ws[n][0]
            assert table[k, m] == pytest.approx(table.min(), abs=1e-7)


def test_empty_winner_set_above_threshold():
    inst = single_combo_instance(p_con=4.0)
    ws = winner_sets(inst, 2.0)  # above mu_max = 1
    assert ws[0] == []
    alloc = evaluate_mu(inst, 2.0).alloc_min
    assert alloc.total_power == 0.0
    assert not alloc.indicator.any()


def test_mu_bounds_hand_values():
    inst = single_combo_instance(p_con=4.0)
    lo, hi = mu_bounds(inst)
    assert lo == pytest.approx(np.exp(-2.0))  # a b r gamma e^{-b P gamma}
    assert hi == pytest.approx(1.0)
    assert 0.0 < lo < hi


def test_mu_bounds_symmetry(rng):
    inst = point_mass_instance(np.full((3, 2), 1.0), p_con=6.0)
    lo, hi = mu_bounds(inst)
    # homogeneous users: bounds coincide with the single-combination values
    assert hi == pytest.approx(max(a * b * r for m in range(inst.n_mcs)
                                   for a, b, r in [mcs_entry(inst.mcs, 0, m)]))


def test_mu_bounds_computed_once_per_instance(monkeypatch):
    def make():
        return point_mass_instance(np.array([[0.5, 2.0], [1.5, 0.2]]), p_con=3.0)

    calls = []
    namespace = get_kernels()
    marginal = namespace.marginal_values
    monkeypatch.setattr(namespace, "marginal_values",
                        lambda *args: calls.append(args[-1]) or marginal(*args))
    inst = make()
    first = mu_bounds(inst)
    # one pass at zero power (the thresholds) and one at the whole budget
    assert sorted(p.max() for p in calls) == [0.0, 3.0]
    calls.clear()
    assert mu_bounds(inst) == first
    assert not calls
    # a fresh instance over the same data computes the same pair
    assert mu_bounds(make()) == first
    assert len(calls) == 2


def test_allocation_matches_exhaustive_lagrangian(rng):
    for seed in range(6):
        g = np.random.default_rng(seed).uniform(0.3, 3.0, size=(2, 2))
        inst = point_mass_instance(g, p_con=4.0)
        mu = np.random.default_rng(seed + 100).uniform(0.05, 0.6)
        alloc = evaluate_mu(inst, mu).alloc_min
        _, _, l_oracle = exhaustive_lagrangian_min(inst, mu)
        l_solver = lagrangian(inst, mu, alloc)
        assert l_solver == pytest.approx(l_oracle, abs=1e-8)


def test_total_power_monotone_and_limits():
    inst = single_combo_instance(p_con=4.0)
    lo, hi = mu_bounds(inst)
    assert total_power(inst, hi * 1.5) == 0.0
    # closed form: p(mu) = 2 ln(1/mu); approaches P_con = 4 as mu -> mu_min
    assert total_power(inst, lo * 1.0000001) == pytest.approx(4.0, rel=1e-4)
    grid = np.linspace(lo, hi, 120)
    xs = np.array([total_power(inst, m) for m in grid])
    assert np.all(np.diff(xs) <= 1e-9)


def test_min_power_tie_rule_is_lexicographic():
    # two identical users: equal powers, lexicographic pick -> user 0
    inst = point_mass_instance([[1.0, 1.0]], p_con=4.0)
    a_min = evaluate_mu(inst, 0.3).alloc_min
    assert a_min.indicator[0, 0].sum() == 1.0
    assert a_min.indicator.sum() == 1.0


def test_dual_minimizer_beats_random_feasible(rng):
    inst = point_mass_instance(rng.uniform(0.3, 2.5, size=(2, 2)), p_con=4.0)
    mu = 0.25
    best = lagrangian(inst, mu, evaluate_mu(inst, mu).alloc_min)
    n_sub, n_usr, n_mcs = inst.shape
    for _ in range(1000):
        ind = np.zeros(inst.shape)
        x = np.zeros(inst.shape)
        for n in range(n_sub):
            shares = rng.dirichlet(np.ones(n_usr * n_mcs + 1))[:-1]
            ind[n] = shares.reshape(n_usr, n_mcs)
            x[n] = ind[n] * rng.uniform(0.0, 2.0 * inst.p_con / n_sub)
        cand = AllocationState(ind, x)
        assert lagrangian(inst, mu, cand) >= best - 1e-9


def _winner_identity(inst, mu):
    alloc = evaluate_mu(inst, mu).alloc_min
    flat = alloc.indicator.reshape(inst.n_subchannels, -1)
    return tuple(int(np.argmax(row)) if row.any() else -1 for row in flat)


def test_jump_structure_only_at_ties():
    # engineered crossing: two users with different decay constants
    from ofdma_sra import McsTable, ProblemInstance
    inst = ProblemInstance(
        mcs=McsTable(a=[[1.0], [1.0]], b=[[0.25], [0.9]], r=[[3.0], [2.0]]),
        utility=UtilitySpec.goodput(2),
        dists=SnrDistribution.point_mass([[1.0, 1.4]]),
        p_con=6.0)
    lo, hi = mu_bounds(inst)
    # log spacing keeps the grid fine where p*(mu) ~ log(1/mu) is steep
    grid = np.geomspace(lo, hi * 0.999, 1200)
    idents = [_winner_identity(inst, m) for m in grid]
    xs = np.array([total_power(inst, m) for m in grid])
    switches = [i for i in range(len(grid) - 1) if idents[i] != idents[i + 1]]
    assert switches, "instance should exhibit at least one winner change"
    # within constant-identity segments X*(mu) moves continuously
    same = np.array([idents[i] == idents[i + 1] for i in range(len(grid) - 1)])
    assert np.max(np.abs(np.diff(xs))[same]) < 0.1
    assert np.min(np.abs(np.diff(xs))[~same]) > 1.0  # the switch is a real jump
    # at each winner change, the crossing point is a genuine tie; under the
    # min-power rule the winner changes where the lower-power combination
    # enters the tie band, so the tie holds at m_hi, the first mu carrying
    # the new winner (m_lo and m_hi end as adjacent doubles)
    for i in switches:
        m_lo, m_hi = grid[i], grid[i + 1]
        ident_lo = idents[i]
        for _ in range(80):
            mid = 0.5 * (m_lo + m_hi)
            if _winner_identity(inst, mid) == ident_lo:
                m_lo = mid
            else:
                m_hi = mid
        ws = winner_sets(inst, m_hi)
        assert any(len(w) >= 2 for w in ws)


def test_indicator_cost_convexity(rng):
    inst = combo_instance(SnrDistribution([0.5, 1.5], [0.5, 0.5]), MCS)
    for _ in range(200):
        i1, i2 = rng.uniform(0, 1, 2)
        if rng.random() < 0.2:
            i1 = 0.0
        x1, x2 = rng.uniform(0, 5, 2)
        if i1 == 0.0:
            x1 = 0.0
        mid = indicator_cost(inst, 0.5 * (i1 + i2), 0.5 * (x1 + x2))
        ends = 0.5 * (indicator_cost(inst, i1, x1)
                      + indicator_cost(inst, i2, x2))
        assert mid <= ends + 1e-9


def test_allocation_state_validation():
    ind = np.zeros((1, 1, 1))
    x = np.zeros((1, 1, 1))
    check_allocation(AllocationState(ind, x, discrete=True))
    with pytest.raises(ValueError):
        check_allocation(AllocationState(np.full((1, 1, 1), 2.0), x))
    with pytest.raises(ValueError):  # x without I
        check_allocation(AllocationState(ind, np.full((1, 1, 1), 1.0)))
    bad = AllocationState(np.full((1, 1, 1), 0.5), np.full((1, 1, 1), 0.5),
                          discrete=True)
    with pytest.raises(ValueError):
        check_allocation(bad)
    with pytest.raises(ValueError):
        AllocationState(np.zeros((2, 2)), np.zeros((2, 2)))


def test_allocation_utility_zero():
    inst = single_combo_instance()
    empty = AllocationState(np.zeros(inst.shape), np.zeros(inst.shape))
    assert allocation_utility(inst, empty) == 0.0


def test_instance_takes_one_n_k_atoms_batch():
    inst = point_mass_instance([[1.0, 2.0], [0.5, 1.5], [1.2, 0.3]], p_con=3.0)
    assert inst.shape == (3, 2, 2)
    assert inst.flat()[0].shape == (12, 1)
    good = dict(mcs=inst.mcs, utility=inst.utility, p_con=3.0)
    for dists in (SnrDistribution.point_mass([1.0, 2.0]),         # (K, A)
                  SnrDistribution.point_mass(np.ones((3, 2, 2))),  # 4-D
                  [[SnrDistribution.point_mass(1.0)] * 2] * 3):    # nested list
        with pytest.raises(ValueError, match=r"shape \(N, K, atoms\)"):
            ProblemInstance(dists=dists, **good)
