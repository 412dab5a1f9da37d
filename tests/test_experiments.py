"""Scenario config parsing, trial determinism, CSV/manifest outputs, CLI."""

import csv
import hashlib
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ofdma_sra import (ChannelConfig, ConfigError, ScenarioConfig, run_trial,
                       solve_csra, solve_dsra)
from ofdma_sra import experiments
from ofdma_sra.cli import main as cli_main
from ofdma_sra.experiments import (SUMMARY_COLUMNS, TRIALS_COLUMNS,
                                   run_scenario, trial_seed)
from test_golden import SCENARIOS as GOLDEN_SCENARIOS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# manifest config_sha256 of every shipped config; a change moves every run's hash
CONFIG_SHA256 = {
    "pilot_sweep_desk.json":
        "ad7875558c3da972e2c0d8b6ff87ecd5da74ddac11fc857db8f4c142e93f3798",
    "pilot_sweep_full.json":
        "5c4582658834ee0cfe835eb6d637afc0d1838cda19625e8b01c5b62e4c82739a",
    "pricing_sweep_desk.json":
        "527d1b1e81488757926d761fff58c6705637afd33d64afc7b98047f7f2fc6d82",
    "snr_sweep_desk.json":
        "61c6e1363489e63a6817b138bcaa9b1f0391ed3499271c0d767485223601dd25",
    "users_sweep_desk.json":
        "22619054314c64f12b27478ee6f8aefb7eb72f79a84779dcd03d3c2e1fdac376",
}

TINY = ScenarioConfig(
    channel=ChannelConfig(n_subchannels=6, n_users=2),
    n_mcs=2, sweep_values=(-10.0, 0.0), n_trials=2, n_atoms=8, seed=11,
    subgradient_updates=5)


def test_config_roundtrip():
    d = TINY.to_dict()
    again = ScenarioConfig.from_dict(json.loads(json.dumps(d)))
    assert again == TINY


def config_sha256(cfg):
    """The manifest's hash: sha256 of the key-sorted JSON of to_dict()."""
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


SHIPPED = {**{p.name: json.loads(p.read_text())
              for p in sorted(CONFIGS.glob("*.json"))},
           **{f"golden:{k}": raw for k, raw in GOLDEN_SCENARIOS.items()}}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_roundtrip(name):
    cfg = ScenarioConfig.from_dict(SHIPPED[name])
    again = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_sha256_pinned():
    got = {p.name: config_sha256(ScenarioConfig.from_file(p))
           for p in sorted(CONFIGS.glob("*.json"))}
    assert got == CONFIG_SHA256


def test_missing_keys_take_defaults():
    assert ScenarioConfig.from_dict({}) == ScenarioConfig()
    d = ScenarioConfig().to_dict()
    # an unset optional number is written as null, an unset optional list
    # is left out
    assert d["kappa"] is None and d["channel"]["tap_variance"] is None
    assert "weights" not in d["utility"] and "class_weights" not in d["utility"]


def test_config_rejects_unknown_keys():
    base = TINY.to_dict()
    base["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        ScenarioConfig.from_dict(base)
    base = TINY.to_dict()
    base["channel"]["bogus"] = 3
    with pytest.raises(ConfigError, match="channel.*bogus"):
        ScenarioConfig.from_dict(base)


# (config, anchored ConfigError pattern naming the field's path)
BAD_CONFIGS = [
    ({"sweep": {"variable": "nope", "values": [1]}}, r"^sweep\.variable: "),
    ({"sweep": {"values": [-10, -10]}}, r"^sweep\.values: duplicate"),
    ({"sweep": {"values": ["a"]}}, r"^sweep\.values: "),
    ({"sweep": {"values": []}}, r"^sweep\.values: "),
    ({"sweep": {"variable": "n_users", "values": [0, 2]}}, r"^sweep\.values: "),
    ({"sweep": {"variable": "weight_w1", "values": [0.5]}},
     r"^sweep\.variable: weight_w1 requires utility\.class_weights"),
    ({"n_trials": 0}, r"^n_trials: "),
    ({"n_trials": "abc"}, r"^n_trials: "),
    ({"n_trials": 2.7}, r"^n_trials: must be an integer, got 2\.7"),
    ({"n_trials": True}, r"^n_trials: must be an integer, got True"),
    ({"channel": {"n_users": 3.9}},
     r"^channel\.n_users: must be an integer, got 3\.9"),
    ({"sweep": {"variable": "n_users", "values": [2, 2.5]}},
     r"^sweep\.values: must be an integer, got 2\.5"),
    ({"sweep": {"variable": "n_users", "values": [2, True]}},
     r"^sweep\.values: must be a number, got True"),
    ({"seed": 1.5}, r"^seed: must be an integer"),
    ({"seed": -1}, r"^seed: must be nonnegative"),
    ({"n_atoms": True}, r"^n_atoms: must be an integer"),
    ({"channel": {"n_subchannels": 8.5}},
     r"^channel\.n_subchannels: must be an integer"),
    ({"channel": {"tap_count": False}},
     r"^channel\.tap_count: must be an integer"),
    ({"mcs": {"n_mcs": "3"}}, r"^mcs\.n_mcs: must be an integer"),
    ({"subgradient": {"updates": 1.5}},
     r"^subgradient\.updates: must be an integer"),
    ({"kappa": -1}, r"^kappa: must be positive"),
    ({"kappa": 0}, r"^kappa: must be positive"),
    ({"schemes": ["WAT"]}, r"^schemes: unknown scheme 'WAT'"),
    ({"schemes": "CSRA-ICSI"}, r"^schemes: must be a list"),
    ({"channel": 5}, r"^channel: must be an object"),
    ({"channel": {"n_users": "x"}}, r"^channel\.n_users: "),
    ({"channel": {"n_subchannels": 2, "tap_count": 2}}, r"^channel: "),
    ({"mcs": {"n_mcs": "x"}}, r"^mcs\.n_mcs: "),
    ({"mcs": {"n_mcs": 0}}, r"^mcs\.n_mcs: must be at least 1"),
    ({"utility": {"scale": "x"}}, r"^utility\.scale: "),
    ({"utility": {"variant": "nope"}}, r"^utility\.variant: unknown variant"),
    ({"utility": {"variant": "capacity_log"}},
     r"^utility\.variant: capacity_log"),
    ({"utility": {"variant": "exp_pricing"}}, r"^utility\.weights: "),
    ({"utility": {"variant": "exp_pricing", "weights": [1.0, 2.0, 3.0]}},
     r"^utility\.weights: expected 4 entries"),
    ({"utility": {"variant": "weighted_goodput", "weights": [1.0, 1.0]},
      "sweep": {"variable": "n_users", "values": [2, 3]}},
     r"^utility\.weights: expected 3 entries"),
    ({"utility": {"variant": "exp_pricing", "class_weights": [1.0, -2.0]}},
     r"^utility: "),
    ({"subgradient": {"updates": "x"}}, r"^subgradient\.updates: "),
    ({"subgradient": {"updates": 0}},
     r"^subgradient\.updates: must be at least 1"),
    ([], r"^config root: must be an object"),
    # numbers are finite JSON numbers, strings are strings
    ({"kappa": "0.5"}, r"^kappa: must be a number, got '0\.5'"),
    ({"channel": {"snr_db": True}},
     r"^channel\.snr_db: must be a number, got True"),
    ({"utility": {"variant": "exp_pricing", "class_weights": ["1", 2]}},
     r"^utility\.class_weights: must be a number, got '1'"),
    ({"sweep": {"values": ["1"]}}, r"^sweep\.values: must be a number, got '1'"),
    ({"channel": {"pilot_snr_db": float("nan")}},
     r"^channel\.pilot_snr_db: must be finite, got nan"),
    ({"channel": {"snr_db": float("inf")}},
     r"^channel\.snr_db: must be finite, got inf"),
    ({"channel": {"tap_variance": float("nan")}},
     r"^channel\.tap_variance: must be finite, got nan"),
    ({"kappa": float("inf")}, r"^kappa: must be finite, got inf"),
    ({"kappa": 10 ** 400}, r"^kappa: int too large to convert to float"),
    ({"sweep": {"values": [-10.0, float("nan")]}},
     r"^sweep\.values: must be finite, got nan"),
    ({"mcs": {"preset": 5}}, r"^mcs\.preset: must be a string, got 5"),
    ({"sweep": {"variable": None}},
     r"^sweep\.variable: must be a string, got None"),
    ({"utility": {"variant": ["goodput"]}},
     r"^utility\.variant: must be a string"),
    ({"schemes": ["FP-RUS", 1]}, r"^schemes: must be a string, got 1"),
    # schemes, like sweep values, are non-empty and distinct
    ({"schemes": []}, r"^schemes: must be non-empty"),
    ({"schemes": ["FP-RUS", "FP-RUS"]}, r"^schemes: duplicate values"),
    # values the run would ignore or misuse
    ({"subgradient": {"scale": -1.0}},
     r"^subgradient\.scale: must be positive"),
    ({"subgradient": {"scale": 0}}, r"^subgradient\.scale: must be positive"),
    ({"utility": {"variant": "goodput", "class_weights": [1, 2]},
      "sweep": {"variable": "weight_w1", "values": [0.5, 1.0]}},
     r"^utility\.class_weights: goodput takes no weights"),
    ({"mcs": {"preset": "capacity"},
      "utility": {"variant": "capacity_log", "weights": [1, 1, 1, 1]}},
     r"^utility\.weights: capacity_log takes no weights"),
    ({"utility": {"variant": "goodput", "scale": 0.5}},
     r"^utility\.scale: goodput takes no scale"),
    # dB fields whose linear power overflows or underflows
    ({"channel": {"snr_db": 4000}}, r"^channel: snr_db must give a positive"),
    ({"channel": {"snr_db": -4000}}, r"^channel: snr_db must give a positive"),
    ({"channel": {"pilot_snr_db": 4000},
      "sweep": {"variable": "snr_db", "values": [10.0]}},
     r"^channel: snr_db .* pilot_snr_db a finite pilot power"),
    ({"sweep": {"variable": "snr_db", "values": [10.0, 4000.0]}},
     r"^sweep\.values: snr_db must give a positive"),
]


def test_config_field_errors():
    for raw, pattern in BAD_CONFIGS:
        with pytest.raises(ConfigError, match=pattern):
            ScenarioConfig.from_dict(raw)


def test_no_pilot_still_runs():
    # pilot power 10^(-400) underflows to 0: the estimate is the prior
    raw = TINY.to_dict()
    raw["sweep"]["values"] = [-4000.0]
    cfg = ScenarioConfig.from_dict(raw)
    assert cfg.at_sweep_value(-4000.0).channel.pilot_power == 0.0
    records = run_trial(cfg, 0, 0)
    assert all(np.isfinite(r.utility) for r in records)


def test_integral_floats_are_integers():
    cfg = ScenarioConfig.from_dict({"n_trials": 3.0,
                                    "channel": {"n_users": 2.0}})
    assert (cfg.n_trials, cfg.channel.n_users) == (3, 2)
    assert type(cfg.n_trials) is type(cfg.channel.n_users) is int


def test_trial_seed_derivation():
    s1 = trial_seed(0, 0, 0)
    assert trial_seed(0, 0, 0) == s1
    assert trial_seed(0, 0, 1) != s1
    assert trial_seed(0, 1, 0) != s1
    assert trial_seed(1, 0, 0) != s1


def test_run_trial_deterministic():
    def strip(recs):
        out = []
        for r in recs:
            d = dict(vars(r))
            d.pop("runtime_ms")  # wall-clock field, not part of the contract
            out.append(d)
        return out

    assert strip(run_trial(TINY, 0, 0)) == strip(run_trial(TINY, 0, 0))


def test_per_trial_invariants():
    for t in range(3):
        recs = {r.scheme: r for r in run_trial(TINY, 0, t)}
        assert recs["DSRA-ICSI"].utility <= recs["CSRA-ICSI"].utility + 1e-9
        for r in recs.values():
            assert r.goodput_per_subchannel >= 0.0
        assert recs["DSRA-ICSI"].gap_bound_per_subchannel >= 0.0
        assert recs["CSRA-ICSI"].mu_lo <= recs["CSRA-ICSI"].mu_hi


def test_icsi_schemes_share_one_continuous_solve(monkeypatch):
    # DSRA-ICSI comes first: it makes the ICSI solve that CSRA-ICSI reuses
    solved, ranked = [], []

    def counted_csra(inst, kappa=None):
        solved.append((inst, solve_csra(inst, kappa)))
        return solved[-1][1]

    def recorded_dsra(inst, *args, **kwargs):
        ranked.append(args)
        return solve_dsra(inst, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_csra", counted_csra)
    monkeypatch.setattr(experiments, "solve_dsra", recorded_dsra)
    cfg = replace(TINY, schemes=("DSRA-ICSI", "CSRA-ICSI"))
    dsra, csra = run_trial(cfg, 0, 0)
    icsi = experiments.build_trial_instances(
        cfg.at_sweep_value(cfg.sweep_values[0]),
        trial_seed(cfg.seed, 0, 0))["icsi"]
    assert len(solved) == 1
    inst, res = solved[0]
    assert np.array_equal(inst.dists.values, icsi.dists.values)
    assert len(ranked) == 1 and ranked[0][0] is res
    assert (dsra.scheme, csra.scheme) == cfg.schemes
    for name in ("mu_lo", "mu_hi", "iters"):
        assert getattr(dsra, name) == getattr(csra, name)


def test_desk_trial_with_empty_upper_end():
    # P_con = 16 * 10^-2: kappa = 0.3 / P_con is wider than [mu_min,
    # mu_max], so the upper bracket end sits at mu_max and allocates nothing
    cfg = ScenarioConfig.from_dict({
        "channel": {"n_subchannels": 16, "n_users": 4},
        "mcs": {"n_mcs": 4}, "n_atoms": 32, "n_trials": 1, "seed": 608,
        "kappa": 0.3 / 0.16,
        "sweep": {"variable": "snr_db", "values": [-20.0]},
        "schemes": ["CSRA-ICSI", "DSRA-ICSI"]})
    recs = {r.scheme: r for r in run_trial(cfg, 0, 0)}
    assert recs["DSRA-ICSI"].utility <= recs["CSRA-ICSI"].utility + 1e-9


def test_run_scenario_outputs(tmp_path):
    out = run_scenario(TINY, tmp_path / "run")
    rows = _csv_rows(out["trials_csv"])
    assert tuple(rows[0]) == TRIALS_COLUMNS
    assert len(rows) - 1 == len(TINY.sweep_values) * TINY.n_trials * len(TINY.schemes)
    srows = _csv_rows(out["summary_csv"])
    assert tuple(srows[0]) == SUMMARY_COLUMNS
    assert len(srows) - 1 == len(TINY.sweep_values) * len(TINY.schemes)
    manifest = json.loads(out["manifest"].read_text())
    assert manifest["root_seed"] == 11
    assert manifest["n_records"] == len(rows) - 1
    canonical = json.dumps(manifest["config"], sort_keys=True)
    assert manifest["config_sha256"] == hashlib.sha256(
        canonical.encode()).hexdigest()
    assert manifest["config"] == TINY.to_dict()


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _rows_sans_runtime(path):
    return [r[:-1] for r in _csv_rows(path)]  # drop the wall-clock column


def test_run_scenario_rerun_is_bit_identical(tmp_path):
    a = run_scenario(TINY, tmp_path / "a")
    b = run_scenario(TINY, tmp_path / "b")
    assert _rows_sans_runtime(a["trials_csv"]) == _rows_sans_runtime(b["trials_csv"])


def test_weight_sweep_requires_class_weights():
    cfg = ScenarioConfig.from_dict({
        "sweep": {"variable": "weight_w1", "values": [0.5, 1.0]},
        "utility": {"variant": "exp_pricing", "class_weights": [0.8, 1.0]},
        "n_trials": 1})
    swept = cfg.at_sweep_value(0.5)
    assert swept.utility.class_weights == (0.5, 1.0)
    # rejected while parsing, before any trial runs
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({
            "sweep": {"variable": "weight_w1", "values": [0.5]}, "n_trials": 1})


def test_pilot_trend_in_means():
    # more pilot power -> better imperfect-CSI scheduling, bounded below by
    # the no-CSI baseline and above by the clairvoyant run (means over trials)
    cfg = ScenarioConfig(
        channel=ChannelConfig(n_subchannels=8, n_users=2), n_mcs=2,
        sweep_variable="pilot_snr_db", sweep_values=(-20.0, 0.0, 20.0),
        n_trials=12, n_atoms=16, seed=21,
        schemes=("CSRA-PCSI", "CSRA-ICSI", "FP-RUS"))
    means, ses = {}, {}
    for s, v in enumerate(cfg.sweep_values):
        rows = [r for t in range(cfg.n_trials) for r in run_trial(cfg, s, t)]
        for scheme in cfg.schemes:
            vals = np.array([r.goodput_per_subchannel for r in rows
                             if r.scheme == scheme])
            means.setdefault(scheme, []).append(float(vals.mean()))
            ses.setdefault(scheme, []).append(
                float(vals.std(ddof=1) / np.sqrt(vals.size)))
    icsi = means["CSRA-ICSI"]
    assert icsi[0] < icsi[1] < icsi[2]
    # bound orderings hold in the mean (2-SE noise band on the upper side,
    # where perfect and imperfect CSI coincide at high pilot SNR)
    for i in range(3):
        assert means["FP-RUS"][i] <= icsi[i]
        band = 2.0 * (ses["CSRA-PCSI"][i] + ses["CSRA-ICSI"][i])
        assert icsi[i] <= means["CSRA-PCSI"][i] + band


def test_n_users_sweep_changes_instance():
    cfg = ScenarioConfig.from_dict({
        "sweep": {"variable": "n_users", "values": [1, 3]},
        "n_trials": 1, "n_atoms": 4,
        "channel": {"n_subchannels": 4, "n_users": 2}})
    recs = run_trial(cfg, 1, 0)
    assert recs  # K=3 instance built and solved


# -- CLI ----------------------------------------------------------------------


def write_config(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return p


def test_cli_run_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "channel": {"n_subchannels": 4, "n_users": 2},
        "mcs": {"preset": "qam", "n_mcs": 2},
        "sweep": {"variable": "pilot_snr_db", "values": [-10.0]},
        "n_trials": 1, "n_atoms": 4,
        "schemes": ["CSRA-ICSI", "FP-RUS"]})
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "5"])
    assert code == 0
    assert (tmp_path / "out" / "trials.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["root_seed"] == 5


def test_cli_scheme_override(tmp_path):
    cfg = write_config(tmp_path, {
        "channel": {"n_subchannels": 4, "n_users": 2},
        "sweep": {"values": [-10.0]}, "n_trials": 1, "n_atoms": 4})
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--schemes", "FP-RUS"])
    assert code == 0
    rows = _csv_rows(tmp_path / "o" / "trials.csv")
    assert {r[3] for r in rows[1:]} == {"FP-RUS"}


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"bogus_key": 1})
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    notjson = tmp_path / "bad.json"
    notjson.write_text("{nope")
    assert cli_main(["run", str(notjson), "--out", str(tmp_path / "o")]) == 2


def test_cli_field_error_exit_2(tmp_path, capsys):
    # every malformed config stops before any output, naming the field
    for raw, pattern in BAD_CONFIGS:
        cfg = write_config(tmp_path, raw)
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert re.search(pattern, err[len("config error: "):]), (raw, err)
        assert not (tmp_path / "o").exists()


def test_cli_schemes_override_is_checked(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "channel": {"n_subchannels": 4, "n_users": 2},
        "sweep": {"values": [-10.0]}, "n_trials": 1, "n_atoms": 4})
    for schemes, message in ((",", "schemes: must be non-empty"),
                             ("FP-RUS,FP-RUS", "schemes: duplicate values")):
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o"),
                         "--schemes", schemes]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()


def test_cli_seed_override_is_checked(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "channel": {"n_subchannels": 4, "n_users": 2},
        "sweep": {"values": [-10.0]}, "n_trials": 1, "n_atoms": 4})
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed: must be nonnegative\n"
    assert not (tmp_path / "o").exists()


def test_cli_missing_file_exit_3(tmp_path):
    assert cli_main(["run", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 3


def test_cli_unwritable_out_exit_3(tmp_path):
    cfg = write_config(tmp_path, {
        "channel": {"n_subchannels": 4, "n_users": 2},
        "sweep": {"values": [-10.0]}, "n_trials": 1, "n_atoms": 4,
        "schemes": ["FP-RUS"]})
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    assert cli_main(["run", str(cfg), "--out", str(blocker / "sub")]) == 3


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = write_config(tmp_path, {
        "channel": {"n_subchannels": 4, "n_users": 2},
        "sweep": {"values": [-10.0]}, "n_trials": 1, "n_atoms": 4,
        "schemes": ["FP-RUS"]})
    proc = subprocess.run(
        [sys.executable, "-m", "ofdma_sra.cli", "run", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_threads_parallel_matches_serial(tmp_path):
    cfg = ScenarioConfig(
        channel=ChannelConfig(n_subchannels=4, n_users=2), n_mcs=2,
        sweep_values=(-10.0,), n_trials=2, n_atoms=4, seed=3,
        schemes=("CSRA-ICSI", "FP-RUS"))
    a = run_scenario(cfg, tmp_path / "serial", threads=1)
    b = run_scenario(cfg, tmp_path / "par", threads=2)
    assert _rows_sans_runtime(a["trials_csv"]) == _rows_sans_runtime(b["trials_csv"])
