"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion (the line carries the measured margin).
"""

import time

import numpy as np
import pytest

from ofdma_sra import (ChannelConfig, McsTable, ScenarioConfig,
                       SnrDistribution, UtilitySpec, default_kappa,
                       draw_channel, dsra_gap_bound, evaluate_mu,
                       mmse_estimate, mu_bounds, run_trial, solve_csra,
                       solve_dsra)
from ofdma_sra.experiments import build_trial_instances
from conftest import atom_instance, combo_instance, point_mass_instance
from reference import (bisection_mids, brute_force_dsra, grid_power_oracle,
                       indicator_cost, indicators, iteration_bound,
                       traced_subgradient)

P_CON = 4.0
N_INSTANCES = 20
INSTANCE_SEED = 20260811


def small_instances(seed=INSTANCE_SEED, count=N_INSTANCES, lo=0.3, hi=3.0):
    """The frozen random N=2, K=2, M=2 point-mass instance batch."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.uniform(lo, hi, size=(2, 2))
        out.append(point_mass_instance(g, p_con=P_CON, mcs=McsTable.qam(2, 2)))
    return out


DESK = ScenarioConfig(
    channel=ChannelConfig(n_subchannels=16, n_users=4, snr_db=10.0,
                          pilot_snr_db=-10.0),
    n_mcs=4, sweep_variable="pilot_snr_db", sweep_values=(-10.0,),
    n_trials=50, n_atoms=32, seed=606,
    schemes=("CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS"))

DESK_K = ScenarioConfig(
    channel=ChannelConfig(n_subchannels=16, n_users=4, snr_db=10.0,
                          pilot_snr_db=-10.0),
    n_mcs=4, sweep_variable="n_users", sweep_values=(1, 2, 4, 8),
    n_trials=50, n_atoms=32, seed=607, schemes=("CSRA-ICSI", "FP-RUS"))


@pytest.fixture(scope="module")
def pilot_sweep():
    t0 = time.perf_counter()
    records = []
    for t in range(DESK.n_trials):
        records.extend(run_trial(DESK, 0, t))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def k_sweep():
    t0 = time.perf_counter()
    records = []
    for s in range(len(DESK_K.sweep_values)):
        for t in range(DESK_K.n_trials):
            records.extend(run_trial(DESK_K, s, t))
    return records, time.perf_counter() - t0


def _series(records, scheme, sweep_value=None, field="goodput_per_subchannel"):
    return np.array([getattr(r, field) for r in records
                     if r.scheme == scheme
                     and (sweep_value is None or r.sweep_value == sweep_value)])


def _se(x):
    return x.std(ddof=1) / np.sqrt(x.size)


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_csra_vs_grid_oracle():
    grid_points = 400
    t0 = time.perf_counter()
    worst = np.inf
    for inst in small_instances():
        res = solve_csra(inst)
        u_oracle = max(grid_power_oracle(inst, ind, grid_points)[1]
                       for ind in indicators(inst))
        grid_slack = 2.0 * (inst.p_con / grid_points) * res.mu_max
        upper = (res.mu_hi - res.mu_lo) * inst.p_con + grid_slack
        diff = u_oracle - res.utility
        assert diff >= -grid_slack - 1e-12
        assert diff <= upper
        worst = min(worst, upper - diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS: oracle within certificate band on "
          f"{N_INSTANCES} instances (tightest margin {worst:.3e}, "
          f"{elapsed:.1f}s)")


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_dsra_gap_certificate():
    t0 = time.perf_counter()
    for inst in small_instances():
        kappa = default_kappa(inst.p_con)
        dsra = solve_dsra(inst, solve_csra(inst, kappa))
        brute = brute_force_dsra(inst, kappa)
        gap = brute.utility - dsra.utility
        assert gap >= -1e-12
        assert gap <= dsra.gap_bound + kappa * inst.p_con

    # constructed no-tie instances: generate until 10 degenerate-blend cases
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10:
        g = rng.uniform(0.2, 4.0, size=(2, 2))
        inst = point_mass_instance(g, p_con=P_CON, mcs=McsTable.qam(2, 2))
        csra = solve_csra(inst)
        if not csra.degenerate_blend or dsra_gap_bound(inst, csra) != 0.0:
            continue
        dsra = solve_dsra(inst, csra)
        brute = brute_force_dsra(inst)
        assert brute.utility - dsra.utility <= 1e-6
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"[criterion 2] PASS: sandwich on {N_INSTANCES} random + "
          f"{checked} no-tie instances ({elapsed:.1f}s)")


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_total_power_monotone():
    insts = small_instances(seed=11, count=5, lo=0.2, hi=4.0)
    insts += [atom_instance(seed=s, n_sub=3, n_usr=2, n_mcs=3, n_atoms=8,
                            p_con=20.0) for s in range(5)]
    worst = -np.inf
    for inst in insts:
        lo, hi = mu_bounds(inst)
        grid = np.linspace(lo, hi, 200)
        xs = np.array([evaluate_mu(inst, m).alloc_min.total_power
                       for m in grid])
        worst = max(worst, float(np.diff(xs).max()))
        assert np.all(np.diff(xs) <= 1e-9)
    print(f"[criterion 3] PASS: X*(mu) nonincreasing on 10 instances "
          f"(largest increase {worst:.2e})")


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_iteration_bound(pilot_sweep):
    for inst in small_instances():
        kappa = default_kappa(inst.p_con)
        res = solve_csra(inst, kappa)
        assert res.iterations <= iteration_bound(res.mu_min, res.mu_max, kappa)

    parts = build_trial_instances(DESK, seed=1)
    inst = parts["icsi"]
    kappa = default_kappa(inst.p_con)
    res = solve_csra(inst, kappa)
    bound = iteration_bound(res.mu_min, res.mu_max, kappa)
    assert res.iterations <= bound <= 25
    records, _ = pilot_sweep
    iters = _series(records, "CSRA-ICSI", field="iters")
    assert np.all(iters <= 25)
    print(f"[criterion 4] PASS: mu-updates <= ceil(log2(range/kappa)); "
          f"desk scale {res.iterations} <= {bound} <= 25")


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_power_feasibility():
    worst = 0.0
    insts = small_instances() + [build_trial_instances(DESK, seed=2)["icsi"]]
    for inst in insts:
        res = solve_csra(inst)
        assert not res.budget_slack
        err = abs(res.blend.total_power - inst.p_con)
        worst = max(worst, err / inst.p_con)
        assert err <= 1e-6 * inst.p_con
        assert abs(res.alloc.total_power - inst.p_con) <= 1e-6 * inst.p_con
    print(f"[criterion 5] PASS: blended power meets the budget "
          f"(worst relative error {worst:.2e})")


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_trend_reproduction(pilot_sweep, k_sweep):
    records, t_pilot = pilot_sweep
    fp = _series(records, "FP-RUS")
    icsi = _series(records, "CSRA-ICSI")
    pcsi = _series(records, "CSRA-PCSI")
    sep_low = (icsi.mean() - fp.mean()) / np.sqrt(_se(icsi) ** 2 + _se(fp) ** 2)
    sep_high = (pcsi.mean() - icsi.mean()) / np.sqrt(_se(pcsi) ** 2
                                                     + _se(icsi) ** 2)
    assert sep_low >= 5.0
    assert sep_high >= 5.0

    krecords, t_k = k_sweep
    fp_means, fp_ses, csra_means = [], [], []
    for k in DESK_K.sweep_values:
        fpk = _series(krecords, "FP-RUS", sweep_value=k)
        fp_means.append(fpk.mean())
        fp_ses.append(_se(fpk))
        csra_means.append(_series(krecords, "CSRA-ICSI", sweep_value=k).mean())
    for i in range(1, len(fp_means)):
        tol = 2.0 * np.sqrt(fp_ses[i] ** 2 + fp_ses[0] ** 2)
        assert abs(fp_means[i] - fp_means[0]) <= tol + 1e-12
    assert np.all(np.diff(csra_means) > 0)

    elapsed = t_pilot + t_k
    assert elapsed < 600.0
    print(f"[criterion 6] PASS: FP-RUS < CSRA-ICSI ({sep_low:.1f} SE) < "
          f"CSRA-PCSI ({sep_high:.1f} SE); FP-RUS flat, CSRA increasing in K "
          f"({elapsed:.0f}s)")


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_csra_dsra_proximity(pilot_sweep):
    records, _ = pilot_sweep
    icsi = _series(records, "CSRA-ICSI")
    dsra = _series(records, "DSRA-ICSI")
    gaps = icsi - dsra
    assert np.all(gaps >= 0.0)
    assert gaps.mean() <= 1e-2
    print(f"[criterion 7] PASS: per-trial CSRA-DSRA goodput gap in "
          f"[{gaps.min():.1e}, {gaps.max():.1e}], mean {gaps.mean():.1e} "
          f"<= 1e-2 bpcu")


def test_reported_dsra_bound_is_tight(pilot_sweep):
    # the per-subchannel certificate stays finite and small against the
    # achieved goodput at the desk-scale operating point
    records, _ = pilot_sweep
    bounds = _series(records, "DSRA-ICSI", field="gap_bound_per_subchannel")
    goodput = _series(records, "DSRA-ICSI")
    assert np.all(np.isfinite(bounds)) and np.all(bounds >= 0.0)
    assert bounds.mean() <= 0.05 * goodput.mean()


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_mmse_correctness():
    cfg = ChannelConfig(n_subchannels=4, n_users=2, tap_count=2,
                        pilot_snr_db=0.0)
    real = draw_channel(cfg, seed=42)
    est = mmse_estimate(cfg, real, seed=42)

    # independent dense evaluation of the conditional-Gaussian formulas
    f = cfg.dft_columns()
    r_hh = cfg.sigma_g2 * f @ f.conj().T
    pp = cfg.pilot_power
    r_yy = pp * r_hh + np.eye(4)
    rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(1,)))
    noise = (rng.standard_normal((4, 2))
             + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    obs = np.sqrt(pp) * real.freq_gains + noise
    inv = np.linalg.inv(r_yy)
    mean_ref = np.sqrt(pp) * r_hh @ inv @ obs
    cov_ref = r_hh - pp * r_hh @ inv @ r_hh
    err_mean = np.max(np.abs(est.mean - mean_ref))
    err_var = abs(est.est_error_var - np.real(cov_ref[0, 0]))
    assert err_mean < 1e-10
    assert err_var < 1e-10

    low = mmse_estimate(ChannelConfig(4, 2, 2, pilot_snr_db=-200.0), real, 42)
    assert np.max(np.abs(low.mean)) < 1e-7
    assert abs(low.est_error_var - 1.0) < 1e-7
    high_cfg = ChannelConfig(4, 2, 2, pilot_snr_db=200.0)
    high = mmse_estimate(high_cfg, draw_channel(high_cfg, 42), 42)
    assert high.est_error_var < 1e-10
    print(f"[criterion 8] PASS: MMSE matches dense oracle "
          f"(mean err {err_mean:.1e}, var err {err_var:.1e}); limits hold")


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_convergence_rate():
    parts = build_trial_instances(DESK, seed=9)
    inst = parts["icsi"]
    mids = bisection_mids(inst)
    mu_ref = mids[-1]
    err_bisect = abs(mids[14] - mu_ref)
    _, mus, _ = traced_subgradient(inst, 15)
    err_sub = abs(mus[-1] - mu_ref)
    assert err_bisect <= err_sub / 10.0
    print(f"[criterion 9] PASS: after 15 updates bisection err "
          f"{err_bisect:.2e} <= subgradient err {err_sub:.2e} / 10")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_perspective_convexity():
    rng = np.random.default_rng(1010)
    dists = [SnrDistribution.point_mass(1.3),
             SnrDistribution([0.4, 1.0, 2.1], [0.25, 0.5, 0.25])]
    utils = [UtilitySpec.goodput(1), UtilitySpec.exp_pricing([1.2])]
    mcs_entries = [(1.0, 0.5, 2.0), (0.8, 0.3, 3.0)]
    insts = {(i, j, l): combo_instance(d, e, u)
             for i, d in enumerate(dists) for j, u in enumerate(utils)
             for l, e in enumerate(mcs_entries)}
    n_pairs = 10_000
    worst = -np.inf
    for _ in range(n_pairs):
        inst = insts[(rng.integers(len(dists)), rng.integers(len(utils)),
                      rng.integers(len(mcs_entries)))]
        i1, i2 = rng.uniform(0.0, 1.0, 2)
        if rng.random() < 0.15:
            i1 = 0.0
        if rng.random() < 0.15:
            i2 = 0.0
        x1 = 0.0 if i1 == 0.0 else rng.uniform(0.0, 6.0)
        x2 = 0.0 if i2 == 0.0 else rng.uniform(0.0, 6.0)
        mid = indicator_cost(inst, 0.5 * (i1 + i2), 0.5 * (x1 + x2))
        ends = 0.5 * (indicator_cost(inst, i1, x1)
                      + indicator_cost(inst, i2, x2))
        violation = mid - ends
        worst = max(worst, violation)
        assert violation <= 1e-9
    print(f"[criterion 10] PASS: midpoint convexity on {n_pairs} pairs "
          f"(worst violation {worst:.2e})")
