"""Smoke check of scripts/bench_pairs.py: this checkout against itself.

One desk_sweep pair of one-second runs, plus the traced run of each side;
the written BENCH file must carry every section with the expected shape.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_pairs_writes_schema(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT),
         str(ROOT), "--workloads", "desk_sweep", "--pairs", "1",
         "--seconds", "1", "--label", "smoke", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(doc) >= {"label", "sides", "environment", "stats", "wins",
                        "traced", "runs"}
    assert set(doc["environment"]) >= {"python", "numpy", "scipy", "cores",
                                       "loadavg_before", "loadavg_after"}
    for side in ("parent", "change"):
        assert set(doc["sides"][side]) == {"rev", "dirty"}
    runs = doc["runs"]
    assert sorted((r["side"], r["trace"]) for r in runs) == [
        ("change", 0), ("change", 1), ("parent", 0), ("parent", 1)]
    for r in runs:
        assert r["result"]["correct"] and r["result"]["failed"] == 0
        assert r["env"]["workload"] == "desk_sweep"
    names = [m["name"] for m in BENCH["end_to_end"]]
    for side in ("parent", "change"):
        stats = doc["stats"]["desk_sweep"][side]
        assert set(stats) == set(names)
        for m in names:
            assert set(stats[m]) == {"median", "q1", "q3", "n"}
    for side in ("parent", "change"):
        traced = doc["traced"]["desk_sweep"][side]
        assert {"kernels.power_roots_rows", "csra.iterations"} <= set(traced)
    for m in names:
        w = doc["wins"]["desk_sweep"][m]
        assert w["pairs"] == 1 and w["change"] + w["parent"] <= 1
