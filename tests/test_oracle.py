"""Grid/enumeration oracles and their agreement with the dual machinery."""

import numpy as np
import pytest

from ofdma_sra import evaluate_mu, mu_bounds, solve_fixed_allocation
from conftest import point_mass_instance, single_combo_instance
from reference import (exhaustive_lagrangian_min, grid_power_oracle,
                       lagrangian)


def test_grid_oracle_single_combo_matches_waterfill():
    inst = single_combo_instance(p_con=1.0)
    ind = np.ones((1, 1, 1))
    powers, util = grid_power_oracle(inst, ind, grid_points=500)
    fs = solve_fixed_allocation(inst, ind, kappa=1e-9)
    assert abs(powers.sum() - fs.alloc.total_power) <= inst.p_con / 500 + 1e-8
    # the water-fill power carries the root-find's 1e-9 relative tolerance
    assert util <= fs.utility + 1e-8
    assert util >= fs.utility - 2 * inst.p_con / 500  # grid slack


def test_grid_oracle_empty():
    inst = single_combo_instance()
    powers, util = grid_power_oracle(inst, np.zeros((1, 1, 1)), 100)
    assert util == 0.0 and not powers.any()


def test_grid_oracle_symmetric_split():
    inst = point_mass_instance([[1.0], [1.0]], p_con=2.0)
    ind = np.zeros(inst.shape)
    ind[0, 0, 0] = ind[1, 0, 0] = 1.0
    powers, _ = grid_power_oracle(inst, ind, grid_points=400)
    assert abs(powers[0, 0, 0] - powers[1, 0, 0]) <= 2 * 2.0 / 400


def test_grid_oracle_caps():
    inst = point_mass_instance(np.ones((5, 1)), p_con=5.0,
                               mcs=None, utility=None)
    ind = np.zeros(inst.shape)
    for n in range(5):
        ind[n, 0, 0] = 1.0
    with pytest.raises(ValueError):
        grid_power_oracle(inst, ind, 100)  # 5 active > 4
    with pytest.raises(ValueError):
        grid_power_oracle(single_combo_instance(), np.ones((1, 1, 1)), 5000)


def test_exhaustive_min_above_mu_max():
    inst = single_combo_instance(p_con=4.0)
    _, hi = mu_bounds(inst)
    alloc, x, l_val = exhaustive_lagrangian_min(inst, hi * 2.0)
    assert not alloc.indicator.any()
    assert l_val == pytest.approx(-hi * 2.0 * inst.p_con)


def test_exhaustive_min_agrees_with_greedy(rng):
    for seed in range(5):
        g = np.random.default_rng(seed).uniform(0.3, 3.0, size=(2, 2))
        inst = point_mass_instance(g, p_con=4.0)
        mu = float(np.random.default_rng(seed + 50).uniform(0.05, 0.6))
        alloc, _, l_oracle = exhaustive_lagrangian_min(inst, mu)
        l_greedy = lagrangian(inst, mu, evaluate_mu(inst, mu).alloc_min)
        assert l_greedy == pytest.approx(l_oracle, abs=1e-8)


def test_exhaustive_min_symmetric_degeneracy():
    inst = point_mass_instance([[1.0, 1.0]], p_con=4.0)  # identical users
    mu = 0.3
    alloc, _, l_val = exhaustive_lagrangian_min(inst, mu)
    # swapping the tied users gives the same Lagrangian
    swapped = evaluate_mu(inst, mu).alloc_min
    assert lagrangian(inst, mu, swapped) == pytest.approx(l_val, abs=1e-12)


def test_exhaustive_min_cap():
    inst = point_mass_instance(np.ones((8, 2)), p_con=8.0)
    with pytest.raises(ValueError, match="max_hypotheses"):
        exhaustive_lagrangian_min(inst, 0.3, max_hypotheses=10)
