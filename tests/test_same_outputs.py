"""scripts/same_outputs.py: the output gate between two checkouts."""

import csv
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ofdma_sra import ScenarioConfig, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_outputs.py"
TINY = {"channel": {"n_subchannels": 4, "n_users": 2},
        "sweep": {"values": [-10.0, 0.0]}, "n_trials": 2, "n_atoms": 4,
        "schemes": ["CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS",
                    "SUBGRAD-ICSI"]}


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_checkout_against_itself(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), str(cfg)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "tiny.json: same\n"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), str(cfg),
         "--rtol", "1e-8"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("tiny.json: sweep_var 0, sweep_value 0, ")
    assert "utility 0, " in proc.stdout
    assert proc.stdout.endswith("manifest.json 0; within rtol 1e-08\n")


def test_schemes_flag_is_passed_to_the_runs(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "run"
    proc = load_script().start_run(ROOT, cfg, out, "FP-RUS,DSRA-ICSI")
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode == 0, err
    with (out / "trials.csv").open(newline="") as fh:
        schemes = {row["scheme"] for row in csv.DictReader(fh)}
    assert schemes == {"FP-RUS", "DSRA-ICSI"}

    def script(schemes):
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), str(cfg),
             "--schemes", schemes], capture_output=True, text=True, timeout=120)

    proc = script("DSRA-ICSI,CSRA-ICSI")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "tiny.json: same\n"
    proc = script("NO-SUCH-SCHEME")
    assert proc.returncode == 2
    assert "unknown scheme 'NO-SUCH-SCHEME'" in proc.stderr


def set_cell(column, value):
    """An edit of trials.csv: column of the first record set to value, or
    to value(the old text) when value is callable."""
    def edit(text):
        rows = [line.split(",") for line in text.splitlines()]
        col = rows[0].index(column)
        rows[1][col] = value(rows[1][col]) if callable(value) else value
        return "".join(",".join(row) + "\n" for row in rows)
    return edit


def scaled(factor):
    return lambda cell: repr(float(cell) * factor)


def set_key(key, value):
    """An edit of manifest.json: key set to value."""
    def edit(text):
        return json.dumps(dict(json.loads(text), **{key: value}))
    return edit


def edited_copy(run_a, run_b, name, edit):
    """run_b as a copy of run_a with one output file edited."""
    shutil.rmtree(run_b, ignore_errors=True)
    shutil.copytree(run_a, run_b)
    path = run_b / name
    path.write_text(edit(path.read_text()))


def test_only_timings_are_ignored(tmp_path):
    same_outputs = load_script()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_scenario(ScenarioConfig.from_dict(TINY), run_a)

    def differences_after(name, edit):
        edited_copy(run_a, run_b, name, edit)
        return same_outputs.differences(run_a, run_b)

    assert differences_after("trials.csv", lambda text: text) == []
    assert differences_after("trials.csv", set_cell("runtime_ms", "1e9")) == []
    assert differences_after("manifest.json", set_key("runtime_s", 1e9)) == []
    assert differences_after("trials.csv", set_cell("utility", "0")) == [
        "trials.csv"]
    assert differences_after("summary.csv", lambda text: text + "\n") == [
        "summary.csv"]
    assert differences_after("manifest.json", set_key("root_seed", -1)) == [
        "manifest.json (root_seed)"]


def test_a_differing_manifest_names_its_keys(tmp_path):
    same_outputs = load_script()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_scenario(ScenarioConfig.from_dict(TINY), run_a)

    def edit(text):
        doc = json.loads(text)
        doc["config"]["seed"] = 12
        doc["config_sha256"] = "0" * 64
        doc["extra"] = None
        del doc["version"]
        return json.dumps(doc)

    edited_copy(run_a, run_b, "manifest.json", edit)
    assert same_outputs.differences(run_a, run_b) == [
        "manifest.json (config, config_sha256, extra, version)"]
    edited_copy(run_a, run_b, "trials.csv", set_cell("utility", "0"))
    (run_b / "manifest.json").write_text(
        edit((run_b / "manifest.json").read_text()))
    assert same_outputs.differences(run_a, run_b) == [
        "trials.csv", "manifest.json (config, config_sha256, extra, version)"]


def test_rtol_bounds_utility_and_goodput(tmp_path):
    same_outputs = load_script()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_scenario(ScenarioConfig.from_dict(TINY), run_a)

    def drifts_after(edit, name="trials.csv"):
        edited_copy(run_a, run_b, name, edit)
        return same_outputs.drifts(run_a, run_b)

    found = drifts_after(set_cell("runtime_ms", "1e9"))
    assert set(found.values()) == {0.0}
    assert "runtime_ms" not in found
    found = drifts_after(set_cell("utility", scaled(1.0 + 1e-9)))
    assert found["utility"] == pytest.approx(1e-9, rel=1e-3)
    assert same_outputs.beyond(found, 1e-8) == []
    assert same_outputs.beyond(found, 1e-10) == ["utility"]
    found = drifts_after(set_cell("goodput_per_subchannel", scaled(1.0 + 1e-7)))
    assert same_outputs.beyond(found, 1e-8) == ["goodput_per_subchannel"]
    # other columns are reported, not bounded
    found = drifts_after(set_cell("mu_lo", scaled(2.0)))
    assert found["mu_lo"] == pytest.approx(0.5)
    assert same_outputs.beyond(found, 1e-8) == []
    # text, shape and manifest must still match
    found = drifts_after(set_cell("scheme", "FP-RUS"))
    assert same_outputs.beyond(found, 1e-8) == ["scheme"]
    found = drifts_after(lambda text: text + text.splitlines()[1] + "\n")
    assert same_outputs.beyond(found, 1e-8) == list(found)[:-1]
    assert found["manifest.json"] == 0.0
    found = drifts_after(set_key("root_seed", -1), "manifest.json")
    assert same_outputs.beyond(found, 1e-8) == ["manifest.json"]
