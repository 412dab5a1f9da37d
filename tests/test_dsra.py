"""Discrete solver: fixed-allocation water-filling, brute force, certificates."""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdma_sra import (McsTable, ProblemInstance, ScenarioConfig,
                       SnrDistribution, UtilitySpec, default_kappa,
                       dsra_gap_bound, evaluate_mu, mu_bounds, run_trial,
                       solve_csra, solve_dsra, solve_fixed_allocation)
from ofdma_sra import csra, waterfill
from ofdma_sra import dsra as dsra_module
from ofdma_sra.dual import _bisect_budget, _rows
from ofdma_sra.waterfill import refinement_kappa
from conftest import atom_instance, point_mass_instance, single_combo_instance
from reference import brute_force_dsra, point_mass_waterfill

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_fixed_allocation_single_combo():
    inst = single_combo_instance(p_con=1.0)
    ind = np.ones((1, 1, 1))
    fs = solve_fixed_allocation(inst, ind, kappa=1e-9)
    assert fs.alloc.total_power == pytest.approx(1.0, abs=1e-6)
    assert fs.utility == pytest.approx((1 - np.exp(-0.5)) * 2, abs=1e-6)


def test_fixed_allocation_symmetric_split():
    inst = point_mass_instance([[1.0], [1.0]], p_con=2.0)
    ind = np.zeros(inst.shape)
    ind[0, 0, 0] = ind[1, 0, 0] = 1.0
    fs = solve_fixed_allocation(inst, ind, kappa=1e-9)
    x = fs.alloc.actual_power
    assert x[0, 0, 0] == pytest.approx(x[1, 0, 0], abs=1e-9)
    assert fs.alloc.total_power == pytest.approx(2.0, abs=1e-6)


def test_fixed_allocation_budget_never_exceeded(rng):
    inst = atom_instance(seed=5, n_sub=3, n_usr=2, n_mcs=2, p_con=12.0)
    for _ in range(10):
        ind = np.zeros(inst.shape)
        for n in range(3):
            if rng.random() < 0.8:
                ind[n, rng.integers(2), rng.integers(2)] = 1.0
        fs = solve_fixed_allocation(inst, ind, kappa=1e-6)
        assert fs.alloc.total_power <= inst.p_con * (1 + 1e-6)


def test_fixed_allocation_kappa_below_float_spacing(monkeypatch):
    # the water-filling search stops at adjacent floats too
    inst = atom_instance(seed=5, n_sub=3, n_usr=2, n_mcs=2, p_con=12.0)
    ind = np.zeros(inst.shape)
    ind[:, 0, 1] = 1.0
    kernels = waterfill.get_kernels()
    calls = []

    def capped(*args):
        calls.append(args)
        if len(calls) > 2000:
            raise RuntimeError("the bisection does not stop")
        return kernels.power_roots(*args)

    monkeypatch.setattr(waterfill, "get_kernels", lambda: SimpleNamespace(
        power_roots=capped, marginal_values=kernels.marginal_values,
        expected_utilities=kernels.expected_utilities))
    fs = solve_fixed_allocation(inst, ind, kappa=1e-300)
    assert fs.mu_hi == np.nextafter(fs.mu_lo, np.inf)
    assert fs.alloc.total_power == pytest.approx(inst.p_con, rel=1e-9)


def test_fixed_allocation_empty():
    inst = single_combo_instance(p_con=1.0)
    fs = solve_fixed_allocation(inst, np.zeros((1, 1, 1)), kappa=1e-3)
    assert fs.alloc.total_power == 0.0
    assert fs.utility == 0.0
    assert fs.iterations == 0
    assert fs.budget_slack


def test_fixed_allocation_reports_a_slack_budget():
    # mu_min = 0: the marginal at the whole budget underflows, and the root
    # at mu = 0 is the first power where it does, 16 of the budget's 20
    inst = single_combo_instance(gamma=100.0, p_con=20.0)
    assert mu_bounds(inst)[0] == 0.0
    fs = solve_fixed_allocation(inst, np.ones((1, 1, 1)), kappa=1e-9)
    assert fs.budget_slack
    assert fs.alloc.total_power == 16.0
    # the bracket collapses onto mu_min, as a slack CSRA budget's does
    assert fs.mu_lo == fs.mu_hi == 0.0
    assert fs.iterations == 0
    assert not solve_fixed_allocation(single_combo_instance(), np.ones((1, 1, 1)),
                                      kappa=1e-9).budget_slack


@st.composite
def point_mass_allocation(draw):
    """A point-mass goodput instance and a fixed indicator: random, with one
    active row, or with a row far below the others under a small budget, so
    that it stays off.  SNRs and budgets keep the binding price a normal
    float."""
    kind = draw(st.sampled_from(["random", "single", "off"]))
    n_sub = draw(st.integers(1 if kind == "single" else 2, 5))
    n_usr, n_mcs = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    gammas = 10.0 ** np.reshape(draw(st.lists(
        st.floats(-1.5, 1.0), min_size=n_sub * n_usr, max_size=n_sub * n_usr)),
        (n_sub, n_usr))
    choice = [draw(st.integers(0, n_usr * n_mcs - 1)) for _ in range(n_sub)]
    if kind == "random":
        choice = [c if draw(st.booleans()) else -1 for c in choice]
    elif kind == "single":
        keep = draw(st.integers(0, n_sub - 1))
        choice = [c if n == keep else -1 for n, c in enumerate(choice)]
    else:
        gammas[0] = gammas[1:].max() * 10.0 ** -draw(st.floats(2.0, 3.0))
    p_con = 10.0 ** draw(st.floats(-2.0, -0.5 if kind == "off" else 1.5))
    inst = point_mass_instance(gammas, p_con, mcs=McsTable.qam(n_usr, n_mcs))
    ind = np.zeros((n_sub, n_usr * n_mcs))
    for n, c in enumerate(choice):
        if c >= 0:
            ind[n, c] = 1.0
    return kind, inst, ind.reshape(inst.shape)


@settings(max_examples=60, deadline=None)
@given(point_mass_allocation())
# the tangent level sits just below one row's threshold, and the upper end of
# its cell above every threshold: nothing is on there to take a Newton step
@example(("random", point_mass_instance(
    [[1.0], [0.042169650342858224], [0.056234132519034905], [1.0]], 0.01,
    mcs=McsTable.qam(1, 2)), np.array([[[0.0, 0.0]], [[1.0, 0.0]],
                                       [[0.0, 1.0]], [[0.0, 0.0]]])))
def test_fixed_allocation_matches_exact_point_mass_waterfill(case):
    kind, inst, ind = case
    rows = np.flatnonzero(ind)
    kappa = refinement_kappa(*mu_bounds(inst), default_kappa(inst.p_con))
    fs = solve_fixed_allocation(inst, ind, kappa)
    if not rows.size:
        assert fs.iterations == 0 and fs.utility == 0.0
        return
    gamma, _, a, b, r, _, _ = _rows(inst, rows)
    want, _ = point_mass_waterfill(gamma[:, 0], a, b, r, inst.p_con)
    if kind == "off":
        assert np.any(want == 0.0)
    got = fs.alloc.actual_power.ravel()[rows]
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * inst.p_con)
    assert fs.alloc.total_power == pytest.approx(inst.p_con, rel=1e-9)
    # the tangent level at zero power is exact on point masses: one step
    # to each end of the final bracket, and perhaps one more from rounding
    assert fs.iterations <= 3


def desk_trial_fixed_solves(monkeypatch):
    """Run trial 0 of configs/pilot_sweep_desk.json at every pilot SNR and
    return each fixed-allocation solve with its kappa, and each budget search
    it made next to plain halving of the same bracket."""
    solves, searches = [], []
    solve = csra.solve_fixed_allocation

    def record_solve(inst, indicator, kappa):
        fs = solve(inst, indicator, kappa)
        solves.append((inst, fs, kappa))
        return fs

    def both_searches(evaluate, total, budget, lo, hi, kappa, *guides):
        guided = _bisect_budget(evaluate, total, budget, lo, hi, kappa, *guides)
        searches.append((guided, _bisect_budget(evaluate, total, budget, lo,
                                                hi, kappa)))
        return guided

    monkeypatch.setattr(csra, "solve_fixed_allocation", record_solve)
    monkeypatch.setattr(waterfill, "_bisect_budget", both_searches)
    cfg = ScenarioConfig.from_dict(json.loads(
        (CONFIGS / "pilot_sweep_desk.json").read_text()))
    for s in range(len(cfg.sweep_values)):
        run_trial(cfg, s, 0)
    return solves, searches


def test_fixed_solves_of_a_desk_trial_take_few_steps(monkeypatch):
    solves, _ = desk_trial_fixed_solves(monkeypatch)
    assert len(solves) >= 12
    for inst, fs, kappa in solves:
        assert fs.iterations <= (3 if inst.dists.n_atoms == 1 else 8)
        assert fs.mu_hi - fs.mu_lo <= kappa
        assert fs.alloc.total_power == pytest.approx(inst.p_con, rel=1e-9)
        assert not fs.budget_slack


def test_guided_search_ends_on_the_halving_bracket(monkeypatch):
    # the proposals only skip evaluations: bracket, end evaluations
    # and blend are those of plain halving, bit for bit
    _, searches = desk_trial_fixed_solves(monkeypatch)
    for guided, plain in searches:
        assert (guided.lo, guided.hi, guided.lam) == (plain.lo, plain.hi, plain.lam)
        assert guided.at_lo.tobytes() == plain.at_lo.tobytes()
        assert guided.at_hi.tobytes() == plain.at_hi.tobytes()
    steps = [sum(len(br.mids) for br in side) for side in zip(*searches)]
    assert 3 * steps[0] <= steps[1]


def test_fixed_allocation_invalid_kappa():
    inst = single_combo_instance()
    for kappa in (0.0, np.nan):
        with pytest.raises(ValueError, match="bracket width"):
            solve_fixed_allocation(inst, np.ones((1, 1, 1)), kappa=kappa)


def test_brute_force_hypothesis_counts():
    inst = single_combo_instance(p_con=1.0)
    res = brute_force_dsra(inst)
    assert res.utilities.size == 2
    assert res.utility > 0.0  # singleton beats the empty allocation

    inst2 = point_mass_instance([[1.0, 0.7], [1.3, 0.9]], p_con=4.0,
                                mcs=McsTable.qam(2, 1))
    res2 = brute_force_dsra(inst2)
    assert res2.utilities.size == (2 * 1 + 1) ** 2  # 9


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
        dsra = solve_dsra(inst, solve_csra(inst, kappa))
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
    dsra = solve_dsra(inst, csra)
    brute = brute_force_dsra(inst, kappa)
    assert brute.utility - dsra.utility >= -1e-12
    assert brute.utility - dsra.utility <= dsra.gap_bound + kappa * inst.p_con
    assert dsra.utility <= csra.utility + 1e-9
    assert dsra.alloc.total_power <= inst.p_con * (1.0 + 1e-9)


def empty_upper_end_instance():
    """At kappa = 0.3 / P_con the bracket spans [mu_min, mu_max], so no
    step is taken; nothing is active at mu_max and the root at mu_min
    overshoots P_con, which puts lam well inside (0, 1)."""
    return point_mass_instance([[1.0], [2.0]], p_con=0.1,
                               mcs=McsTable.qam(1, 1))


def test_empty_upper_end():
    inst = empty_upper_end_instance()
    csra = solve_csra(inst, default_kappa(inst.p_con))
    assert csra.iterations == 0 and 0.0 < csra.lam < 1.0
    assert not csra.at_hi.alloc_min.indicator.any()
    dsra = solve_dsra(inst, csra)
    assert not dsra.exact_from_continuous
    assert dsra.csra.fixed_lo is not dsra.csra.fixed_hi  # both ends ranked
    assert dsra.alloc.total_power == pytest.approx(inst.p_con, rel=1e-9)
    assert dsra.utility <= csra.utility + 1e-9


def slack_instance():
    """Atoms 60 decades apart: even mu_min does not spend the budget, so
    the lower end never moves and the bracket collapses onto it."""
    laws = SnrDistribution(np.tile([1e-30, 1e30], (4, 1, 1)),
                           np.full((4, 1, 2), 0.5))
    return ProblemInstance(mcs=McsTable.qam(1, 2),
                           utility=UtilitySpec.goodput(1),
                           dists=laws, p_con=16.0)


def test_budget_slack_collapses_the_bracket():
    inst = slack_instance()
    csra = solve_csra(inst)
    assert csra.budget_slack
    assert csra.mu_lo == csra.mu_hi == csra.mu_min
    assert csra.iterations == 0
    dsra = solve_dsra(inst, csra)
    assert dsra.exact_from_continuous
    assert dsra.utility <= csra.utility
    assert csra.alloc.total_power <= inst.p_con
    assert dsra.alloc.total_power <= inst.p_con


def test_no_tie_instance_matches_csra():
    # generic asymmetric point masses: bracket endpoints agree, solve exact
    inst = point_mass_instance([[0.4, 1.9], [2.6, 0.8]], p_con=4.0)
    csra = solve_csra(inst)
    dsra = solve_dsra(inst, csra)
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
    dsra = solve_dsra(inst, csra)
    assert not dsra.exact_from_continuous
    assert dsra.gap_bound > 0.0
    assert dsra.utility <= csra.utility + 1e-9
    brute = brute_force_dsra(inst, kappa)
    gap = brute.utility - dsra.utility
    assert -1e-12 <= gap <= dsra.gap_bound + kappa * inst.p_con
    assert dsra.gap_bound <= (csra.mu_max - csra.mu_min) * inst.p_con


def unscreened_gap_bound(inst, csra):
    """The bound from a full evaluation of the midpoint: ``dsra_gap_bound``
    with the end evaluations dropped from its ``evaluate_mu`` call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsra_module, "evaluate_mu",
                      lambda inst, mu, at_lo, at_hi: evaluate_mu(inst, mu))
        return dsra_gap_bound(inst, csra)


@st.composite
def gap_bound_case(draw):
    """Random atoms (at most 3x2x2, so that brute force stays cheap) with a
    budget log-uniform in [1e-2, 30], the crossing-score tie, a slack budget
    or the zero-step bracket with an empty upper end."""
    kind = draw(st.sampled_from(["atoms", "tie", "slack", "empty_upper_end"]))
    if kind == "tie":
        return make_tie_instance()
    if kind == "slack":
        return slack_instance()
    if kind == "empty_upper_end":
        return empty_upper_end_instance()
    n_sub, n_usr, n_mcs = (draw(st.integers(1, k)) for k in (3, 2, 2))
    return atom_instance(draw(st.integers(0, 2 ** 16)), n_sub, n_usr, n_mcs,
                         draw(st.integers(1, 4)),
                         10.0 ** draw(st.floats(-2.0, 1.5)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(gap_bound_case())
def test_screened_gap_bound_is_sound_and_no_larger(inst):
    # the screen drops only rows that tie nowhere in the bracket: the bound
    # can only fall, and never below the brute-force shortfall
    kappa = default_kappa(inst.p_con)
    csra = solve_csra(inst, kappa)
    dsra = solve_dsra(inst, csra)
    assert dsra.gap_bound <= unscreened_gap_bound(inst, csra)
    brute = brute_force_dsra(inst, kappa)
    assert dsra.gap_bound >= brute.utility - dsra.utility - kappa * inst.p_con


def test_gap_bound_scores_one_screened_midpoint(monkeypatch):
    # one evaluation, at the bracket midpoint, screened by both kept end
    # evaluations; none when the budget is slack
    calls = []

    def spy(instance, mu, at_lo=None, at_hi=None):
        ev = evaluate_mu(instance, mu, at_lo, at_hi)
        calls.append((mu, at_lo, at_hi, np.count_nonzero(np.isfinite(ev.v))))
        return ev

    monkeypatch.setattr(dsra_module, "evaluate_mu", spy)
    inst = atom_instance(seed=11, n_usr=2, n_mcs=2, n_atoms=4, p_con=24.0)
    csra = solve_csra(inst)
    dsra_gap_bound(inst, csra)
    [(mu, at_lo, at_hi, scored)] = calls
    assert mu == 0.5 * (csra.mu_lo + csra.mu_hi)
    assert at_lo is csra.at_lo and at_hi is csra.at_hi
    assert scored < np.prod(inst.shape)
    inst = slack_instance()
    assert dsra_gap_bound(inst, solve_csra(inst)) == 0.0
    assert len(calls) == 1


def test_domination_over_random_batch():
    rng = np.random.default_rng(5150)
    for _ in range(12):
        gammas = rng.uniform(0.2, 3.0, size=(3, 2))
        inst = point_mass_instance(gammas, p_con=6.0)
        csra = solve_csra(inst)
        dsra = solve_dsra(inst, csra)
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
        res = solve_dsra(inst, solve_csra(inst))
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
    d1 = solve_dsra(inst, solve_csra(inst, k0))
    d2 = solve_dsra(inst, solve_csra(inst, k0 / 10))
    assert np.array_equal(d1.alloc.indicator, d2.alloc.indicator)


def test_candidate_ranking_picks_the_higher_utility():
    inst = make_tie_instance()
    dsra = solve_dsra(inst, solve_csra(inst))
    assert not dsra.exact_from_continuous
    ends = (dsra.csra.fixed_lo, dsra.csra.fixed_hi)
    assert ends[0].utility != ends[1].utility
    best = max(ends, key=lambda fs: fs.utility)
    assert dsra.alloc is best.alloc
    assert dsra.utility == best.utility


def test_candidate_ranking_keeps_the_lower_end_on_a_tie():
    inst = make_tie_instance()
    csra = solve_csra(inst)
    lo = csra.fixed_lo
    twin = replace(lo, alloc=replace(lo.alloc))  # a distinct end, same utility
    for ends in ((lo, twin), (twin, lo)):
        tied = replace(csra, fixed_lo=ends[0], fixed_hi=ends[1])
        assert solve_dsra(inst, tied).alloc is ends[0].alloc
