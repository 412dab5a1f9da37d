"""scripts/same_outputs.py: the output gate between two checkouts."""

import csv
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

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
    """An edit of trials.csv: column of the first record set to value."""
    def edit(text):
        rows = [line.split(",") for line in text.splitlines()]
        rows[1][rows[0].index(column)] = value
        return "".join(",".join(row) + "\n" for row in rows)
    return edit


def set_key(key, value):
    """An edit of manifest.json: key set to value."""
    def edit(text):
        return json.dumps(dict(json.loads(text), **{key: value}))
    return edit


def test_only_timings_are_ignored(tmp_path):
    same_outputs = load_script()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_scenario(ScenarioConfig.from_dict(TINY), run_a)

    def differences_after(name, edit):
        shutil.rmtree(run_b, ignore_errors=True)
        shutil.copytree(run_a, run_b)
        path = run_b / name
        path.write_text(edit(path.read_text()))
        return same_outputs.differences(run_a, run_b)

    assert differences_after("trials.csv", lambda text: text) == []
    assert differences_after("trials.csv", set_cell("runtime_ms", "1e9")) == []
    assert differences_after("manifest.json", set_key("runtime_s", 1e9)) == []
    assert differences_after("trials.csv", set_cell("utility", "0")) == [
        "trials.csv"]
    assert differences_after("summary.csv", lambda text: text + "\n") == [
        "summary.csv"]
    assert differences_after("manifest.json", set_key("root_seed", -1)) == [
        "manifest.json"]
