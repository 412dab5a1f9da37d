"""Scenario config parsing, trial determinism, CSV/manifest outputs, CLI."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from ofdma_sra import ChannelConfig, ConfigError, ScenarioConfig, run_trial
from ofdma_sra.cli import main as cli_main
from ofdma_sra.experiments import (SUMMARY_COLUMNS, TRIALS_COLUMNS,
                                   run_scenario, trial_seed)

TINY = ScenarioConfig(
    channel=ChannelConfig(n_subchannels=6, n_users=2),
    n_mcs=2, sweep_values=(-10.0, 0.0), n_trials=2, n_atoms=8, seed=11,
    subgradient_updates=5)


def test_config_roundtrip():
    d = TINY.to_dict()
    again = ScenarioConfig.from_dict(json.loads(json.dumps(d)))
    assert again == TINY


def test_config_rejects_unknown_keys():
    base = TINY.to_dict()
    base["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        ScenarioConfig.from_dict(base)
    base = TINY.to_dict()
    base["channel"]["bogus"] = 3
    with pytest.raises(ConfigError, match="channel.*bogus"):
        ScenarioConfig.from_dict(base)


def test_config_field_errors():
    with pytest.raises(ConfigError, match="sweep"):
        ScenarioConfig.from_dict({"sweep": {"variable": "nope", "values": [1]}})
    with pytest.raises(ConfigError, match="sweep.values"):
        ScenarioConfig.from_dict({"sweep": {"values": [-10, -10]}})
    with pytest.raises(ConfigError, match="n_trials"):
        ScenarioConfig.from_dict({"n_trials": 0})
    with pytest.raises(ConfigError, match="schemes"):
        ScenarioConfig.from_dict({"schemes": ["WAT"]})


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


def test_run_scenario_outputs(tmp_path):
    out = run_scenario(TINY, tmp_path / "run")
    rows = list(csv.reader(out["trials_csv"].open()))
    assert tuple(rows[0]) == TRIALS_COLUMNS
    assert len(rows) - 1 == len(TINY.sweep_values) * TINY.n_trials * len(TINY.schemes)
    srows = list(csv.reader(out["summary_csv"].open()))
    assert tuple(srows[0]) == SUMMARY_COLUMNS
    assert len(srows) - 1 == len(TINY.sweep_values) * len(TINY.schemes)
    manifest = json.loads(out["manifest"].read_text())
    assert manifest["root_seed"] == 11
    assert manifest["n_records"] == len(rows) - 1
    assert "config_sha256" in manifest


def _rows_sans_runtime(path):
    rows = list(csv.reader(path.open()))
    return [r[:-1] for r in rows]  # drop the wall-clock column


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
    bad = ScenarioConfig.from_dict({
        "sweep": {"variable": "weight_w1", "values": [0.5]}, "n_trials": 1})
    with pytest.raises(ConfigError):
        bad.at_sweep_value(0.5)


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
    rows = list(csv.reader((tmp_path / "o" / "trials.csv").open()))
    assert {r[3] for r in rows[1:]} == {"FP-RUS"}


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"bogus_key": 1})
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    notjson = tmp_path / "bad.json"
    notjson.write_text("{nope")
    assert cli_main(["run", str(notjson), "--out", str(tmp_path / "o")]) == 2


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
