"""Continuous solver: brackets, blends, certificates."""

import numpy as np
import pytest

from ofdma_sra import (allocation_utility, csra, default_kappa, mu_bounds,
                       solve_csra)
from conftest import atom_instance, point_mass_instance, single_combo_instance
from reference import check_allocation, iteration_bound


def test_single_combination_closed_form():
    # interior optimum: p* = P_con = 1, mu* = marginal there = e^{-0.5}
    inst = single_combo_instance(p_con=1.0)
    res = solve_csra(inst, kappa=1e-5)
    mu_star = np.exp(-0.5)
    assert res.mu_lo <= mu_star <= res.mu_hi
    assert res.mu_hi - res.mu_lo <= 1e-5
    assert res.blend.total_power == pytest.approx(1.0, abs=1e-6)
    assert res.utility == pytest.approx((1 - np.exp(-0.5)) * 2, abs=1e-6)
    assert not res.budget_slack


def test_bisection_evaluates_only_midpoints(monkeypatch):
    # the lower end moves here, so mu_min is never evaluated; nor is mu_max
    inst = atom_instance(0)
    calls = []
    evaluate = csra.evaluate_mu

    def record(instance, mu):
        calls.append(mu)
        return evaluate(instance, mu)

    monkeypatch.setattr(csra, "evaluate_mu", record)
    res = solve_csra(inst)
    assert mu_bounds(inst)[0] not in calls
    assert len(calls) == res.iterations


def test_kappa_halving_adds_one_iteration():
    inst = single_combo_instance(p_con=1.0)
    r1 = solve_csra(inst, kappa=1e-3)
    r2 = solve_csra(inst, kappa=5e-4)
    assert r2.iterations == r1.iterations + 1


def test_identical_subchannels_split_evenly():
    inst = point_mass_instance([[1.0], [1.0]], p_con=1.0,
                               mcs=None, utility=None)
    res = solve_csra(inst, kappa=1e-6)
    per_sub = res.alloc.actual_power.sum(axis=(1, 2))
    assert per_sub == pytest.approx([0.5, 0.5], abs=1e-6)


def test_csra_utility_matches_blend_and_dominates_endpoints():
    inst = atom_instance(seed=11, p_con=24.0)
    res = solve_csra(inst)
    assert allocation_utility(inst, res.blend) == pytest.approx(
        res.blend_utility, abs=1e-12)
    u_lo = allocation_utility(inst, res.alloc_lo)
    u_hi = allocation_utility(inst, res.alloc_hi)
    assert res.blend_utility >= min(u_lo, u_hi) - 1e-9
    assert res.utility >= res.blend_utility - 1e-12  # candidate polish only helps


def test_shrinking_kappa_improves_utility():
    inst = atom_instance(seed=3, p_con=18.0)
    k0 = default_kappa(inst.p_con)
    u_coarse = solve_csra(inst, kappa=k0).utility
    u_fine = solve_csra(inst, kappa=k0 / 10).utility
    assert u_fine >= u_coarse - 1e-9


def test_iteration_bound_holds(rng):
    for seed in range(5):
        inst = atom_instance(seed=seed, p_con=20.0 + seed)
        kappa = default_kappa(inst.p_con)
        res = solve_csra(inst, kappa)
        lo, hi = mu_bounds(inst)
        assert res.iterations <= iteration_bound(lo, hi, kappa)
        assert res.mu_hi - res.mu_lo <= kappa


def test_power_feasibility_random_instances():
    for seed in range(8):
        inst = atom_instance(seed=100 + seed, n_sub=4, n_usr=2, n_mcs=3,
                             p_con=25.0)
        res = solve_csra(inst)
        assert not res.budget_slack
        assert abs(res.blend.total_power - inst.p_con) <= 1e-6 * inst.p_con
        assert abs(res.alloc.total_power - inst.p_con) <= 1e-6 * inst.p_con
        check_allocation(res.blend)
        check_allocation(res.alloc)
        assert res.gap_bound >= 0.0


def test_gap_bound_value():
    inst = single_combo_instance(p_con=2.0)
    res = solve_csra(inst, kappa=1e-3)
    assert res.gap_bound == pytest.approx((res.mu_hi - res.mu_lo) * 2.0)
    assert res.gap_bound <= 1e-3 * 2.0 + 1e-15


def test_invalid_kappa():
    inst = single_combo_instance()
    with pytest.raises(ValueError):
        solve_csra(inst, kappa=0.0)
