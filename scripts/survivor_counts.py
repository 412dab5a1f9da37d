#!/usr/bin/env python3
"""Rows scored at each CSRA bisection step, one full-scale cell per pilot SNR.

    python3 scripts/survivor_counts.py BENCH_screening.json

Builds trial 0 of ``configs/pilot_sweep_full.json`` at each of its pilot
SNRs and solves CSRA on the cell's PCSI and ICSI instances.  Every
midpoint evaluation is counted by the rows it scores: all of them until
both bracket ends exist, the survivors of the screen after that.  On the
ICSI solve, the one DSRA-ICSI ranks, the DSRA gap bound's evaluation is
counted the same way, next to its wall time.  The counts go into section
``survivors`` of the given BENCH file, which is created if it does not
exist.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ofdma_sra import csra, dsra, experiments  # noqa: E402
from ofdma_sra.experiments import ScenarioConfig  # noqa: E402

CONFIG = ROOT / "configs" / "pilot_sweep_full.json"


@contextmanager
def counting(module, steps: list):
    """Append to steps the rows each ``module.evaluate_mu`` call scores."""
    evaluate = module.evaluate_mu

    def counted(instance, mu, at_lo=None, at_hi=None):
        ev = evaluate(instance, mu, at_lo, at_hi)
        steps.append({"screened": at_lo is not None and at_hi is not None,
                      "rows": int(np.count_nonzero(np.isfinite(ev.v)))})
        return ev

    module.evaluate_mu = counted
    try:
        yield
    finally:
        module.evaluate_mu = evaluate


def count_steps(inst, kappa, gap_bound: bool) -> dict:
    """One CSRA solve with the rows each evaluation scored, in order, and
    with gap_bound the same for the DSRA gap bound on its result."""
    out = {"rows_total": int(np.prod(inst.shape)), "steps": []}
    with counting(csra, out["steps"]):
        t0 = perf_counter()
        res = csra.solve_csra(inst, kappa)
        out["solve_s"] = perf_counter() - t0
    out["iterations"] = res.iterations
    if gap_bound:
        out["gap_bound_steps"] = []
        with counting(dsra, out["gap_bound_steps"]):
            t0 = perf_counter()
            out["gap_bound"] = dsra.dsra_gap_bound(inst, res)
            out["gap_bound_s"] = perf_counter() - t0
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    path = Path(argv[0])
    cfg = ScenarioConfig.from_dict(json.loads(CONFIG.read_text()))
    cells = []
    for s, value in enumerate(cfg.sweep_values):
        swept = cfg.at_sweep_value(value)
        parts = experiments.build_trial_instances(
            swept, experiments.trial_seed(cfg.seed, s, 0))
        cell = {"pilot_snr_db": value, "trial": 0}
        for name in ("pcsi", "icsi"):
            cell[name] = count_steps(parts[name], swept.kappa,
                                     gap_bound=name == "icsi")
        cells.append(cell)
        print(value, [[st["rows"] for st in cell[n]["steps"]]
                      for n in ("pcsi", "icsi")],
              [st["rows"] for st in cell["icsi"]["gap_bound_steps"]],
              file=sys.stderr)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["survivors"] = {"config": str(CONFIG.relative_to(ROOT)),
                        "cells": cells}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
