#!/usr/bin/env python3
"""Closed-loop benchmark of the ofdma_sra Monte-Carlo trial path.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

One process, one client: each round (one trial at every sweep value of the
workload, see workloads.py) starts when the previous one has returned, for
``--seconds`` seconds of wall time.  Every cell is checked: budget equality
of each CSRA solve, DSRA-ICSI utility not above CSRA-ICSI, finite
non-negative gap bounds, and utility and goodput against reference.json.

``--trace 0`` prints the end-to-end metrics:

* ``trials_per_s``  cells completed per second of time spent in the program
  (the checks between rounds are not counted),
* ``trial_ms_p50``  median wall time of one run_trial call,
* ``setup_s``       median over SETUP_PROBES fresh interpreters of the time
  from process start to the first cell's instances being built and packed,
* ``peak_rss_mb``   peak resident memory of this process.

``trial_ms_p90`` (only with at least 100 cells) and ``failed_ratio`` are
printed as text; the result line carries ``attempted`` and ``failed``.

``--trace 1`` wraps the package's public functions (tracing.py) and prints
per-layer metrics as means per cell, then replays the same rounds untraced
to report the tracing overhead.  The last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS/OpenMP pools are pinned before numpy loads; probes inherit this.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import (ROOT, WORKLOADS, CellLog, Workload, check_cell,  # noqa: E402
                       check_trials_csv, load_reference, prepare)
import tracing  # noqa: E402  (after workloads, which puts src/ on the path)

import ofdma_sra  # noqa: E402

SETUP_PROBES = 5
SELF_SUM_TOL = 0.05   # layer self-times must cover >= 95 % of traced time
P90_MIN_CELLS = 100   # ten samples beyond the 90th percentile
PROBE = Path(__file__).resolve().parent / "probe.py"


def setup_seconds(config: dict, probes: int) -> float:
    """Median time from starting a fresh interpreter to its first cell ready."""
    arg = json.dumps(config)
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(PROBE), arg], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(times)


class Run:
    """Runs rounds of one workload and checks every cell they produce."""

    def __init__(self, wl: Workload, reference: dict, out_dir: Path):
        self.wl = wl
        self.cfg = wl.scenario()
        self.reference = reference
        self.out_dir = out_dir
        self.n_rounds = 0
        self.log = CellLog()
        self.cell_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0

    def rounds(self, order, seconds: float | None = None) -> tuple[list[int], float]:
        """Run rounds from ``order`` (until ``seconds`` of wall time, if given).

        Returns the round ids run and the time spent inside the program.
        """
        done, program, start = [], 0.0, perf_counter()
        for rid in order:
            if seconds is not None and done and perf_counter() - start >= seconds:
                break
            # A fresh directory per round, as a sweep writes into a new --out;
            # rewriting the same files would time the disk's flush on truncate.
            out = self.out_dir / f"round-{self.n_rounds}"
            self.n_rounds += 1
            error = None
            t0 = perf_counter()
            try:
                self.wl.run_round(self.cfg, rid, out)
            except Exception:  # a failed round counts its cells as failed
                error = traceback.format_exc()
            program += perf_counter() - t0
            done.append(rid)
            self._check(rid, out, error)
        return done, program

    def _check(self, rid: int, out: Path, error: str | None) -> None:
        cells = {c.key: c for c in self.log.drain()}
        round_errors = [error] if error else []
        if not error and self.wl.through_scenario:
            round_errors += check_trials_csv(out / "trials.csv",
                                             list(cells.values()))
        for key in self.wl.cell_keys(rid):
            self.attempted += 1
            cell = cells.get(key)
            if cell is None:
                errors = round_errors or ["cell did not run"]
            elif key not in self.reference:
                errors = round_errors + ["no reference row"]
            else:
                self.cell_seconds.append(cell.seconds)
                errors = round_errors + check_cell(cell, self.reference[key])
            if errors:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {self.wl.name} cell {key}: {errors}",
                          file=sys.stderr)


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """The result object and the text lines describing it."""
    setup = None if trace else setup_seconds(wl.config, probes)
    prepare(wl.config)  # same lazy imports and first calls as the probes
    order = itertools.cycle(wl.order(seed))
    lines = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, \
            tracing.Patches() as patches:
        run = Run(wl, reference, Path(tmp))
        run.log.install(patches)
        if not trace:
            _, program = run.rounds(order, seconds)
            ms = np.array(run.cell_seconds) * 1e3
            n = ms.size
            metrics = {
                "trials_per_s": {"value": n / program, "unit": "1/s"},
                "trial_ms_p50": {"value": float(np.median(ms)), "unit": "ms"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            lines.append(f"trial_ms_p50 sample count: {n} cells")
            if n >= P90_MIN_CELLS:
                lines.append(f"trial_ms_p90 = {np.percentile(ms, 90):.4f} ms "
                             f"({n} cells)")
            else:
                lines.append(f"trial_ms_p90 omitted: {n} cells < "
                             f"{P90_MIN_CELLS}, fewer than ten beyond it")
            self_sum_ok = True
        else:
            tracer = tracing.Tracer()
            with tracing.Patches() as traced:
                tracer.install(traced)
                done, traced_program = run.rounds(order, seconds)
            n = len(run.cell_seconds)
            _, plain_program = run.rounds(iter(done))
            share = tracing.unattributed_share(tracer)
            self_sum_ok = share <= SELF_SUM_TOL
            metrics = tracing.layer_metrics(tracer, n)
            metrics.update({
                "trace.cells": {"value": n, "unit": "count"},
                "trace.traced_trials_per_s": {"value": n / traced_program,
                                              "unit": "1/s"},
                "trace.untraced_trials_per_s": {"value": n / plain_program,
                                                "unit": "1/s"},
                "trace.overhead_ratio": {"value": traced_program / plain_program,
                                         "unit": "ratio"},
                "trace.unattributed_share": {"value": share, "unit": "ratio"},
            })
            lines.append(f"layer self-times cover {1.0 - share:.2%} of traced "
                         f"time (required >= {1.0 - SELF_SUM_TOL:.0%}): "
                         f"{'ok' if self_sum_ok else 'FAILED'}")
    lines.append(f"failed_ratio = {run.failed / run.attempted:.6g} "
                 f"({run.failed} of {run.attempted} cells)")
    result = {"correct": run.failed == 0 and self_sum_ok,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, lines


def environment(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    cfg = wl.scenario()
    # numpy is the only kernel path once the numba switch is gone
    backend = getattr(ofdma_sra, "active_backend", None)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "ofdma_sra": ofdma_sra.__version__,
        "backend": backend() if backend else "numpy",
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, one client, one process",
        "size": {"n_subchannels": cfg.channel.n_subchannels,
                 "n_users": cfg.channel.n_users, "n_mcs": cfg.n_mcs,
                 "n_atoms": cfg.n_atoms, "utility": cfg.utility.variant,
                 "schemes": list(cfg.schemes),
                 "cells_per_round": len(cfg.sweep_values),
                 "reference_rounds": wl.pool},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    print("env " + json.dumps(environment(wl, args.seed, args.seconds, trace)))
    result, lines = measure(wl, args.seed, args.seconds, trace,
                            load_reference(wl.name))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
