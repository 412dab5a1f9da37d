"""Discrete solver: fixed-allocation water-filling, brute force, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_sra import (McsTable, ProblemInstance, SnrDistribution, UtilitySpec,
                       default_kappa, dsra_gap_bound, evaluate_mu, mu_bounds,
                       solve_csra, solve_dsra, solve_fixed_allocation)
from conftest import atom_instance, point_mass_instance, single_combo_instance
from reference import brute_force_dsra


def test_fixed_allocation_single_combo():
    inst = single_combo_instance(p_con=1.0)
    ind = np.ones((1, 1, 1))
    fs = solve_fixed_allocation(inst, ind, kappa=1e-9)
    assert fs.x.sum() == pytest.approx(1.0, abs=1e-6)
    assert fs.utility == pytest.approx((1 - np.exp(-0.5)) * 2, abs=1e-6)


def test_fixed_allocation_symmetric_split():
    inst = point_mass_instance([[1.0], [1.0]], p_con=2.0)
    ind = np.zeros(inst.shape)
    ind[0, 0, 0] = ind[1, 0, 0] = 1.0
    fs = solve_fixed_allocation(inst, ind, kappa=1e-9)
    assert fs.x[0, 0, 0] == pytest.approx(fs.x[1, 0, 0], abs=1e-9)
    assert fs.x.sum() == pytest.approx(2.0, abs=1e-6)


def test_fixed_allocation_budget_never_exceeded(rng):
    inst = atom_instance(seed=5, n_sub=3, n_usr=2, n_mcs=2, p_con=12.0)
    for _ in range(10):
        ind = np.zeros(inst.shape)
        for n in range(3):
            if rng.random() < 0.8:
                ind[n, rng.integers(2), rng.integers(2)] = 1.0
        fs = solve_fixed_allocation(inst, ind, kappa=1e-6)
        assert fs.x.sum() <= inst.p_con * (1 + 1e-6)


def test_fixed_allocation_empty():
    inst = single_combo_instance(p_con=1.0)
    fs = solve_fixed_allocation(inst, np.zeros((1, 1, 1)), kappa=1e-3)
    assert fs.x.sum() == 0.0
    assert fs.utility == 0.0
    assert fs.lagrangian == pytest.approx(-fs.mu_hi * inst.p_con)


def test_brute_force_hypothesis_counts():
    inst = single_combo_instance(p_con=1.0)
    res = brute_force_dsra(inst)
    assert res.candidate_lagrangians.size == 2
    assert res.utility > 0.0  # singleton beats the empty allocation

    inst2 = point_mass_instance([[1.0, 0.7], [1.3, 0.9]], p_con=4.0,
                                mcs=McsTable.qam(2, 1))
    res2 = brute_force_dsra(inst2)
    assert res2.candidate_lagrangians.size == (2 * 1 + 1) ** 2  # 9


def test_brute_force_cap():
    inst = atom_instance(seed=0, n_sub=8, n_usr=3, n_mcs=3, n_atoms=2)
    with pytest.raises(ValueError, match="raise max_hypotheses"):
        brute_force_dsra(inst, max_hypotheses=100)


def test_sandwich_on_random_point_mass_instances():
    rng = np.random.default_rng(77)
    for _ in range(8):
        gammas = rng.uniform(0.3, 3.0, size=(2, 2))
        inst = point_mass_instance(gammas, p_con=4.0)
        kappa = default_kappa(inst.p_con)
        dsra = solve_dsra(inst, kappa)
        brute = brute_force_dsra(inst, kappa)
        assert brute.utility - dsra.utility >= -1e-12
        assert brute.utility - dsra.utility <= dsra.gap_bound + kappa * inst.p_con


@st.composite
def small_point_mass_case(draw):
    """At most 2x2x2 point masses, P_con log-uniform in [1e-4, 10]."""
    n_sub, n_usr, n_mcs = (draw(st.integers(1, 2)) for _ in range(3))
    exponents = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_sub * n_usr,
                              max_size=n_sub * n_usr))
    gammas = 10.0 ** np.reshape(exponents, (n_sub, n_usr))
    p_con = 10.0 ** draw(st.floats(-4.0, 1.0))
    return point_mass_instance(gammas, p_con, mcs=McsTable.qam(n_usr, n_mcs))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_point_mass_case())
def test_sandwich_property_small_budgets(inst):
    # small budgets make the default kappa wider than [mu_min, mu_max]: no
    # bisection step, and the upper end is mu_max with nothing allocated
    kappa = default_kappa(inst.p_con)
    csra = solve_csra(inst, kappa)
    dsra = solve_dsra(inst, csra_result=csra)
    brute = brute_force_dsra(inst, kappa)
    assert brute.utility - dsra.utility >= -1e-12
    assert brute.utility - dsra.utility <= dsra.gap_bound + kappa * inst.p_con
    assert dsra.utility <= csra.utility + 1e-9
    assert dsra.alloc.total_power <= inst.p_con * (1.0 + 1e-9)


def test_empty_upper_end():
    # the default kappa = 0.3 / P_con spans [mu_min, mu_max], so no step is
    # taken; nothing is active at mu_max and the root at mu_min overshoots
    # P_con, which puts lam well inside (0, 1)
    inst = point_mass_instance([[1.0], [2.0]], p_con=0.1,
                               mcs=McsTable.qam(1, 1))
    csra = solve_csra(inst)
    assert csra.iterations == 0 and 0.0 < csra.lam < 1.0
    assert not csra.alloc_hi.indicator.any()
    dsra = solve_dsra(inst)
    assert not dsra.exact_from_continuous
    assert dsra.candidate_lagrangians.size == 2
    assert dsra.alloc.total_power == pytest.approx(inst.p_con, rel=1e-9)
    assert dsra.utility <= csra.utility + 1e-9


def test_budget_slack_collapses_the_bracket():
    # atoms 60 decades apart: even mu_min does not spend the budget, so the
    # lower end never moves and the bracket collapses onto it
    laws = SnrDistribution(np.tile([1e-30, 1e30], (4, 1, 1)),
                           np.full((4, 1, 2), 0.5))
    inst = ProblemInstance(mcs=McsTable.qam(1, 2),
                           utility=UtilitySpec.goodput(1),
                           dists=laws, p_con=16.0)
    csra = solve_csra(inst)
    assert csra.budget_slack
    assert csra.mu_lo == csra.mu_hi == csra.mu_min
    assert csra.iterations == 0
    dsra = solve_dsra(inst, csra_result=csra)
    assert dsra.exact_from_continuous
    assert dsra.utility <= csra.utility
    assert csra.alloc.total_power <= inst.p_con
    assert dsra.alloc.total_power <= inst.p_con


def test_no_tie_instance_matches_csra():
    # generic asymmetric point masses: bracket endpoints agree, solve exact
    inst = point_mass_instance([[0.4, 1.9], [2.6, 0.8]], p_con=4.0)
    csra = solve_csra(inst)
    dsra = solve_dsra(inst, csra_result=csra)
    assert csra.degenerate_blend
    assert dsra.exact_from_continuous
    assert abs(dsra.utility - csra.utility) <= 1e-6
    assert np.array_equal(dsra.alloc.indicator, csra.alloc.indicator)
    brute = brute_force_dsra(inst)
    assert brute.utility - dsra.utility <= 1e-6


def make_tie_instance():
    """Two combinations whose scores cross while both are active, with the
    budget placed inside the resulting total-power jump."""
    mcs = McsTable(a=[[1.0], [1.0]], b=[[0.25], [0.9]], r=[[3.0], [2.0]])
    dists = SnrDistribution.point_mass([[1.0, 1.4]])
    probe = ProblemInstance(mcs=mcs, utility=UtilitySpec.goodput(2),
                            dists=dists, p_con=6.0)

    def v_of(k, mu):
        return evaluate_mu(probe, mu).v[0, k, 0]

    lo, hi = 0.05, 0.5
    assert (v_of(0, lo) - v_of(1, lo)) * (v_of(0, hi) - v_of(1, hi)) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (v_of(0, lo) - v_of(1, lo)) * (v_of(0, mid) - v_of(1, mid)) > 0:
            lo = mid
        else:
            hi = mid
    mu_tie = 0.5 * (lo + hi)
    p0, p1 = evaluate_mu(probe, mu_tie).p_star[0, :, 0]
    assert abs(p0 - p1) > 0.1, "crossing powers must differ for a real jump"
    p_con = 0.5 * (p0 + p1)
    return ProblemInstance(mcs=mcs, utility=UtilitySpec.goodput(2),
                           dists=dists, p_con=p_con)


def test_tie_instance_certificates():
    inst = make_tie_instance()
    kappa = default_kappa(inst.p_con)
    csra = solve_csra(inst, kappa)
    assert not csra.degenerate_blend  # the budget sits inside the jump
    assert 0.0 < csra.lam < 1.0
    dsra = solve_dsra(inst, kappa, csra_result=csra)
    assert not dsra.exact_from_continuous
    assert dsra.gap_bound > 0.0
    assert dsra.utility <= csra.utility + 1e-9
    brute = brute_force_dsra(inst, kappa)
    gap = brute.utility - dsra.utility
    assert -1e-12 <= gap <= dsra.gap_bound + kappa * inst.p_con
    assert dsra.gap_bound <= (csra.mu_max - csra.mu_min) * inst.p_con


def test_domination_over_random_batch():
    rng = np.random.default_rng(5150)
    for _ in range(12):
        gammas = rng.uniform(0.2, 3.0, size=(3, 2))
        inst = point_mass_instance(gammas, p_con=6.0)
        csra = solve_csra(inst)
        dsra = solve_dsra(inst, csra_result=csra)
        assert dsra.utility <= csra.utility + 1e-9


def test_gap_bound_cap_does_not_scale_with_size():
    # the coarse certificate (mu_max - mu_min) * P_con is a per-combination
    # range times the fixed budget: replicating users or subchannels with
    # the same statistics must leave it unchanged
    base = point_mass_instance([[0.7, 1.6], [2.1, 0.9]], p_con=4.0)
    wide = point_mass_instance([[0.7, 1.6, 0.7, 1.6], [2.1, 0.9, 2.1, 0.9]],
                               p_con=4.0, mcs=McsTable.qam(4, 2))
    tall = point_mass_instance([[0.7, 1.6], [2.1, 0.9]] * 2, p_con=4.0)
    caps = []
    for inst in (base, wide, tall):
        lo, hi = mu_bounds(inst)
        caps.append((hi - lo) * inst.p_con)
        res = solve_dsra(inst)
        assert res.gap_bound <= caps[-1] + 1e-12
    assert caps[0] == pytest.approx(caps[1], rel=1e-12)
    assert caps[0] == pytest.approx(caps[2], rel=1e-12)


def test_gap_bound_zero_without_ties():
    inst = point_mass_instance([[0.5, 2.0]], p_con=3.0)
    csra = solve_csra(inst)
    assert dsra_gap_bound(inst, csra) == 0.0


def test_kappa_shrink_keeps_chosen_allocation():
    inst = point_mass_instance([[0.4, 1.9], [2.6, 0.8]], p_con=4.0)
    k0 = default_kappa(inst.p_con)
    d1 = solve_dsra(inst, k0)
    d2 = solve_dsra(inst, k0 / 10)
    assert np.array_equal(d1.alloc.indicator, d2.alloc.indicator)


def test_candidate_ranking_records_both_lagrangians():
    inst = make_tie_instance()
    dsra = solve_dsra(inst)
    assert dsra.candidate_lagrangians.size == 2
    assert dsra.lagrangian == pytest.approx(dsra.candidate_lagrangians.min())
