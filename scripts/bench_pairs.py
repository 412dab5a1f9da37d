#!/usr/bin/env python3
"""Alternating-pair benchmark of two checkouts, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workloads full_trial \
        --pairs 10 --seconds 25 --label newton_roots

PARENT and CHANGE are checkout directories, each with its own
``perfbench/run.py``.  For every workload, pair i runs ``--trace 0`` with
seed i+1 on both sides, PARENT first in even pairs and CHANGE first in odd
ones; then each side makes one ``--trace 1`` run with seed 1.  The output
file holds:

* ``runs``: every run's result object and ``env`` line, with its side, pair,
  seed and the position it ran in;
* ``stats``: per workload, side and metric, the median and quartiles of the
  untraced runs;
* ``wins``: per workload and end-to-end metric (directions from the
  PARENT's BENCHMARK.json), the pairs each side won and the change's median
  over the parent's;
* ``traced``: per workload and side, the traced run's per-layer metrics,
  span times next to the counts behind them (kernel rows, bytes computed,
  bisection steps);
* ``environment``: python, numpy and scipy versions, cores and the load
  average before and after;
* ``sides``: each side's ``git rev-parse HEAD`` and whether its work tree
  had uncommitted changes.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

SIDES = ("parent", "change")


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: int,
                  trace: int) -> dict:
    """One perfbench/run.py process; its last stdout line and its env line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")),
               None)
    return {"result": json.loads(lines[-1]), "env": env}


def git_state(checkout: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"rev": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "n": len(values)}


def summarize(runs: list[dict], better: dict) -> tuple[dict, dict]:
    """Per-side quartiles of every untraced metric, and the pair wins."""
    stats, wins = {}, {}
    plain = [r for r in runs if r["trace"] == 0]
    for wl in sorted({r["workload"] for r in plain}):
        mine = [r for r in plain if r["workload"] == wl]

        def values(side, metric):
            return [r["result"]["metrics"][metric]["value"]
                    for r in sorted(mine, key=lambda r: r["pair"])
                    if r["side"] == side]

        metrics = mine[0]["result"]["metrics"]
        stats[wl] = {side: {m: quartiles(values(side, m)) for m in metrics}
                     for side in SIDES}
        wins[wl] = {}
        for m, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            pairs = list(zip(values("parent", m), values("change", m)))
            med = {s: stats[wl][s][m]["median"] for s in SIDES}
            wins[wl][m] = {
                "better": direction,
                "change": sum(sign * (c - p) > 0.0 for p, c in pairs),
                "parent": sum(sign * (p - c) > 0.0 for p, c in pairs),
                "pairs": len(pairs),
                "median_ratio": (med["change"] / med["parent"]
                                 if med["parent"] else None),
            }
    return stats, wins


def traced_split(runs: list[dict]) -> dict:
    """Workload -> side -> metric -> value of the traced runs."""
    traced = {}
    for r in runs:
        if r["trace"] == 1:
            traced.setdefault(r["workload"], {})[r["side"]] = {
                m: v["value"] for m, v in r["result"]["metrics"].items()}
    return traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", default="desk_sweep,full_trial,pricing_dsra",
                    help="comma-separated perfbench workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    environment = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cores": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }

    runs = []
    for wl in args.workloads.split(","):
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                out = run_perfbench(dirs[side], wl, pair + 1, args.seconds, 0)
                runs.append(dict(out, workload=wl, side=side, pair=pair,
                                 seed=pair + 1, trace=0, position=position))
                print(f"{wl} pair {pair} {side}: " + json.dumps(
                    {m: v["value"] for m, v in out["result"]["metrics"].items()}),
                    file=sys.stderr, flush=True)
        for side in SIDES:
            out = run_perfbench(dirs[side], wl, 1, args.seconds, 1)
            runs.append(dict(out, workload=wl, side=side, pair=None, seed=1,
                             trace=1, position=None))
    environment["loadavg_after"] = os.getloadavg()

    stats, wins = summarize(runs, better)
    doc = {"label": args.label, "seconds": args.seconds, "pairs": args.pairs,
           "command": "perfbench/run.py --workload W --seed S --seconds "
                      f"{args.seconds} --trace T",
           "sides": {s: git_state(d) for s, d in dirs.items()},
           "environment": environment, "stats": stats, "wins": wins,
           "traced": traced_split(runs), "runs": runs}
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
