"""Continuous solver: brackets, blends, certificates, screening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_sra import (ChannelConfig, McsTable, ScenarioConfig,
                       allocation_utility, csra, default_kappa, evaluate_mu,
                       fp_rus_baseline, mu_bounds, solve_csra)
from ofdma_sra.dual import _bisect_budget
from ofdma_sra.experiments import build_trial_instances, trial_seed
from ofdma_sra.kernels import get_kernels
from conftest import atom_instance, point_mass_instance, single_combo_instance
from reference import check_allocation, iteration_bound
from test_dsra import make_tie_instance


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

    def record(instance, mu, *ends):
        calls.append(mu)
        return evaluate(instance, mu, *ends)

    monkeypatch.setattr(csra, "evaluate_mu", record)
    res = solve_csra(inst)
    assert mu_bounds(inst)[0] not in calls
    assert len(calls) == res.iterations


def test_kappa_below_float_spacing_stops_at_adjacent_floats(monkeypatch):
    # once the bracket is two adjacent floats its midpoint rounds onto an
    # end; the bisection stops there instead of halving forever
    inst = atom_instance(0)
    calls = []
    evaluate = csra.evaluate_mu

    def capped(instance, mu, *ends):
        calls.append(mu)
        if len(calls) > 2000:
            raise RuntimeError("the bisection does not stop")
        return evaluate(instance, mu, *ends)

    monkeypatch.setattr(csra, "evaluate_mu", capped)
    res = solve_csra(inst, kappa=1e-17)
    assert res.mu_hi == np.nextafter(res.mu_lo, np.inf)
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
    u_blend = allocation_utility(inst, res.blend)
    u_lo = allocation_utility(inst, res.alloc_lo)
    u_hi = allocation_utility(inst, res.alloc_hi)
    assert u_blend >= min(u_lo, u_hi) - 1e-9
    assert res.utility >= u_blend - 1e-12  # candidate polish only helps
    assert res.utility == pytest.approx(allocation_utility(inst, res.alloc),
                                        abs=1e-12)


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
        check_allocation(res.blend, discrete=res.degenerate_blend)
        # a water-filled endpoint whenever it beats the blend
        check_allocation(res.alloc, discrete=res.alloc is not res.blend
                         or res.degenerate_blend)
        assert res.gap_bound >= 0.0


def test_gap_bound_value():
    inst = single_combo_instance(p_con=2.0)
    res = solve_csra(inst, kappa=1e-3)
    assert res.gap_bound == pytest.approx((res.mu_hi - res.mu_lo) * 2.0)
    assert res.gap_bound <= 1e-3 * 2.0 + 1e-15


def test_invalid_kappa():
    inst = single_combo_instance()
    for kappa in (0.0, np.nan):
        with pytest.raises(ValueError, match="bracket width"):
            solve_csra(inst, kappa=kappa)


def test_default_kappa_halves_a_small_budget():
    # desk shape at -30 dB: 0.3 / P_con is wider than [mu_min, mu_max], so
    # uncapped the solve takes no step, and FP-RUS's allocation scored on
    # the same perfect-CSI instance beats the continuous optimum
    cfg = ScenarioConfig(
        channel=ChannelConfig(n_subchannels=16, n_users=4, snr_db=-30.0),
        n_mcs=4, n_atoms=32)
    for trial in range(3):
        seed = trial_seed(cfg.seed, 0, trial)
        parts = build_trial_instances(cfg, seed)
        inst = parts["pcsi"]
        res = solve_csra(inst)
        assert res.iterations >= 4
        assert res.mu_hi - res.mu_lo <= (res.mu_max - res.mu_min) / 16.0
        fp_rus = fp_rus_baseline(parts["prior"], seed)
        assert allocation_utility(inst, fp_rus) <= res.utility


# -- screening: survivors only once both bracket ends exist ---------------------


def desk_instance(seed, pilot_snr_db=-10.0):
    """The ICSI instance of a desk-shape trial (16 x 4 x 4, 32 atoms)."""
    cfg = ScenarioConfig(
        channel=ChannelConfig(n_subchannels=16, n_users=4, snr_db=10.0,
                              pilot_snr_db=pilot_snr_db),
        n_mcs=4, n_atoms=32)
    return build_trial_instances(cfg, seed)["icsi"]


def bits(alloc):
    return alloc.indicator.tobytes(), alloc.actual_power.tobytes()


def screened_bisection(inst):
    """Bisect to adjacent floats, checking each evaluation's min-power
    allocation against a full evaluation's, bit for bit.  Returns, per
    evaluation, whether both ends existed (whether it was screened)."""
    screened = []

    def evaluate(mu, at_lo=None, at_hi=None):
        ev = evaluate_mu(inst, mu, at_lo, at_hi)
        full = evaluate_mu(inst, mu)
        assert bits(ev.alloc_min) == bits(full.alloc_min)
        assert ev.alloc_min.total_power == full.alloc_min.total_power
        screened.append(at_lo is not None and at_hi is not None)
        return ev

    mu_min, mu_max = mu_bounds(inst)
    _bisect_budget(evaluate, lambda ev: ev.alloc_min.total_power, inst.p_con,
                   mu_min, mu_max, (mu_max - mu_min) * 2.0 ** -60)
    return screened


@st.composite
def screening_case(draw):
    """Random atoms, the crossing-score tie, point masses with exact and
    near ties between users, or a desk-shape ICSI instance."""
    kind = draw(st.sampled_from(["atoms", "tie", "point_mass", "desk"]))
    if kind == "tie":
        return make_tie_instance()
    if kind == "desk":
        return desk_instance(draw(st.integers(0, 2 ** 16)),
                             draw(st.sampled_from([-20.0, -10.0, 0.0, 10.0])))
    n_sub, n_usr, n_mcs = (draw(st.integers(1, 3)) for _ in range(3))
    p_con = 10.0 ** draw(st.floats(-1.0, 2.0))
    if kind == "atoms":
        return atom_instance(draw(st.integers(0, 2 ** 16)), n_sub, n_usr, n_mcs,
                             draw(st.integers(1, 8)), p_con)
    gammas = 10.0 ** np.reshape(draw(st.lists(
        st.floats(-1.0, 1.0), min_size=n_sub * n_usr, max_size=n_sub * n_usr)),
        (n_sub, n_usr))
    # users that copy user 0 up to a relative nudge: their scores tie, or
    # differ by less than the tie band
    nudge = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-10]))
    for k in range(1, n_usr):
        if draw(st.booleans()):
            gammas[:, k] = gammas[:, 0] * (1.0 + k * nudge)
    return point_mass_instance(gammas, p_con, mcs=McsTable.qam(n_usr, n_mcs))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(screening_case())
def test_screened_midpoints_match_full_evaluation(inst):
    screened_bisection(inst)


def test_screening_is_exercised_on_ties_and_desk_shapes():
    for inst in (make_tie_instance(), desk_instance(1),
                 point_mass_instance([[1.0, 1.0 + 1e-12], [2.0, 2.0]], 4.0)):
        screened = screened_bisection(inst)
        assert sum(screened) > len(screened) // 2


def test_roots_after_both_ends_run_only_on_survivors(monkeypatch):
    inst = desk_instance(3)
    n_rows = int(np.prod(inst.shape))
    namespace = get_kernels()
    roots = namespace.power_roots
    rows = []

    def counted(*args):
        out = roots(*args)
        rows.append(out.size)
        return out

    monkeypatch.setattr(namespace, "power_roots", counted)
    evaluate = csra.evaluate_mu
    steps = []

    def record(instance, mu, at_lo=None, at_hi=None):
        ev = evaluate(instance, mu, at_lo, at_hi)
        scored = np.count_nonzero(np.isfinite(ev.v))
        steps.append((at_lo is not None and at_hi is not None, scored))
        return ev

    monkeypatch.setattr(csra, "evaluate_mu", record)
    res = solve_csra(inst)
    # both ends move, so every evaluation is a midpoint; the water-filling
    # roots come after them
    assert len(steps) == res.iterations
    assert any(both for both, _ in steps)
    for (both, scored), kernel_rows in zip(steps, rows):
        assert kernel_rows == scored
        assert (kernel_rows < n_rows) if both else (kernel_rows == n_rows)
    assert steps[-1][1] <= n_rows // 4
