"""Reference schemes: random scheduling, perfect CSI, subgradient."""

import numpy as np
import pytest

from ofdma_sra import (allocation_goodput, evaluate_mu, fp_rus_baseline,
                       mu_bounds, solve_csra, subgradient_baseline)
from conftest import atom_instance, point_mass_instance, single_combo_instance
from reference import bisection_mids, check_allocation, traced_subgradient


def test_fp_rus_single_user_mcs_choice():
    # K=1: only the MCS choice is active; compare against a 15-way enumeration
    from ofdma_sra import McsTable
    inst = point_mass_instance(np.ones((4, 1)), p_con=4.0,
                               mcs=McsTable.qam(1, 15))
    alloc = fp_rus_baseline(inst, seed=3)
    p = inst.p_con / inst.n_subchannels  # = 1
    best = max(((1 - np.exp(-1.5 / (2.0 ** (m + 2) - 1) * p)) * (m + 2), m)
               for m in range(15))
    chosen_m = int(np.argwhere(alloc.indicator[0, 0])[0][0])
    assert chosen_m == best[1]
    assert allocation_goodput(inst, alloc) == pytest.approx(4 * best[0],
                                                            rel=1e-12)
    assert alloc.total_power == pytest.approx(inst.p_con)


def test_fp_rus_seed_invariant_value_for_identical_users():
    inst = point_mass_instance(np.ones((4, 3)), p_con=4.0)
    g1 = allocation_goodput(inst, fp_rus_baseline(inst, seed=1))
    g2 = allocation_goodput(inst, fp_rus_baseline(inst, seed=2))
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_fp_rus_allocation_shape():
    inst = atom_instance(seed=2, n_sub=5, n_usr=3, n_mcs=4, p_con=20.0)
    alloc = fp_rus_baseline(inst, seed=9)
    check_allocation(alloc, discrete=True)
    assert np.all(alloc.indicator.sum(axis=(1, 2)) == 1.0)
    assert np.all(alloc.actual_power.sum(axis=(1, 2))
                  == pytest.approx(inst.p_con / 5))


def test_perfect_csi_single_combo_power():
    # the CSRA-PCSI scheme: the continuous solve on a point-mass instance
    inst = single_combo_instance(p_con=2.5)
    res = solve_csra(inst, kappa=1e-6)
    assert res.alloc.total_power == pytest.approx(2.5, rel=1e-6)


def test_subgradient_trace_shape_and_projection():
    inst = atom_instance(seed=4, p_con=15.0)
    _, mus, _ = traced_subgradient(inst, n_updates=10)
    lo, _ = mu_bounds(inst)
    assert mus.size == 10
    assert np.all(mus >= lo - 1e-15)
    with pytest.raises(ValueError):
        subgradient_baseline(inst, 0)


def test_subgradient_step_law():
    # on a single-combination instance the update is mu + s*(p(mu)-P)/i
    # with s = (mu_max - mu_min) / (N*P); late steps shrink like 1/i
    inst = single_combo_instance(p_con=1.0)
    _, mus, totals = traced_subgradient(inst, n_updates=40)
    lo, hi = mu_bounds(inst)
    s = (hi - lo) / (inst.n_subchannels * inst.p_con)
    steps = np.abs(np.diff(mus))
    i = np.arange(1, 40)
    bound = s * np.abs(totals[:-1] - inst.p_con) / i
    assert np.all(steps <= bound + 1e-15)


def test_bisection_beats_subgradient():
    inst = atom_instance(seed=8, n_sub=4, n_usr=2, n_mcs=3, p_con=30.0)
    mids = bisection_mids(inst)
    mu_ref = mids[-1]
    err_bisect = abs(mids[14] - mu_ref)
    _, mus, _ = traced_subgradient(inst, 15)
    err_sub = abs(mus[-1] - mu_ref)
    assert err_bisect <= err_sub / 10


def test_subgradient_returns_the_last_visited_allocation():
    inst = atom_instance(seed=4, p_con=15.0)
    alloc, mus, totals = traced_subgradient(inst, n_updates=6)
    last = evaluate_mu(inst, mus[-1]).alloc_min
    assert np.array_equal(alloc.indicator, last.indicator)
    assert np.array_equal(alloc.actual_power, last.actual_power)
    assert alloc.total_power == totals[-1]
    check_allocation(alloc, discrete=True)
