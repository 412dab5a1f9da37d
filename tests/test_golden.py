"""Golden outputs: every scheme's trial record, to the digits trials.csv keeps.

Three small sweeps run all five schemes through ``run_scenario``; each row of
the resulting ``trials.csv`` except the wall-clock ``runtime_ms`` column must
match ``golden_trials.csv`` as text.  This is the only end-to-end check of
SUBGRAD-ICSI and of the weighted (code 1) and capacity-log (code 3)
utilities, so a refactor that moves any printed digit fails here.

Regenerate the data file only for an intended change of results:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import csv
from pathlib import Path

from ofdma_sra import ScenarioConfig, run_scenario

GOLDEN = Path(__file__).with_name("golden_trials.csv")
ALL = ["CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS", "SUBGRAD-ICSI"]
DESK = {"n_subchannels": 16, "n_users": 4, "tap_count": 2, "snr_db": 10.0,
        "pilot_snr_db": -10.0}

SCENARIOS = {
    "pilot_desk": {
        "channel": DESK, "mcs": {"preset": "qam", "n_mcs": 4},
        "utility": {"variant": "goodput"},
        "sweep": {"variable": "pilot_snr_db", "values": [-15.0, 0.0]},
        "n_trials": 3, "seed": 606, "n_atoms": 32, "schemes": ALL},
    "capacity_log": {
        "channel": DESK, "mcs": {"preset": "capacity"},
        "utility": {"variant": "capacity_log", "scale": 0.5},
        "sweep": {"variable": "pilot_snr_db", "values": [-10.0, 5.0]},
        "n_trials": 2, "seed": 71, "n_atoms": 32, "schemes": ALL},
    "weighted_goodput": {
        "channel": DESK, "mcs": {"preset": "qam", "n_mcs": 4},
        "utility": {"variant": "weighted_goodput",
                    "class_weights": [0.85, 1.0]},
        "sweep": {"variable": "weight_w1", "values": [0.5, 2.0]},
        "n_trials": 2, "seed": 72, "n_atoms": 32, "schemes": ALL},
}


def golden_rows(out_root: Path) -> list[list[str]]:
    """Header plus one row per record: scenario name, trials.csv sans runtime."""
    rows = []
    for name, raw in SCENARIOS.items():
        out = run_scenario(ScenarioConfig.from_dict(raw), out_root / name)
        with out["trials_csv"].open(newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0][-1] == "runtime_ms"
        if not rows:
            rows.append(["scenario"] + table[0][:-1])
        rows.extend([name] + r[:-1] for r in table[1:])
    return rows


def test_trial_records_match_golden(tmp_path):
    with GOLDEN.open(newline="") as fh:
        want = list(csv.reader(fh))
    got = golden_rows(tmp_path)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert g == w


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = golden_rows(Path(tmp))
    with GOLDEN.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {len(rows) - 1} records to {GOLDEN}")
