"""Smoke check of the benchmark itself, fast enough to run on every change.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at a tiny size (4 subchannels, 2 users, 2 MCS, 4 atoms,
two rounds, with a reference recorded on the spot) untraced and traced;
every metric BENCHMARK.json names must be present with its unit and a
finite value.  The command line is exercised once at full size for one
second, and once in a checkout without the program, where it must fail.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run  # first: pins BLAS/OpenMP threads
from make_reference import record
from workloads import ROOT, WORKLOADS, reference_rows

HERE = Path(__file__).resolve().parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(wl):
    cfg = copy.deepcopy(wl.config)
    cfg["channel"].update(n_subchannels=4, n_users=2)
    cfg["mcs"]["n_mcs"] = 2
    cfg["n_atoms"] = 4
    cfg["sweep"]["values"] = cfg["sweep"]["values"][:2]
    return replace(wl, config=cfg, pool=2)


def assert_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_reports_every_metric(name, trace):
    wl = tiny(WORKLOADS[name])
    result, lines = run.measure(wl, seed=3, seconds=0.2, trace=trace,
                                reference=reference_rows(record(wl)),
                                probes=1)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert_metrics(result["metrics"],
                   BENCH["per_layer" if trace else "end_to_end"])
    json.dumps(result)


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pricing_dsra",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result["metrics"], BENCH["end_to_end"])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
