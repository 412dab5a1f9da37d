#!/usr/bin/env python3
"""Rows scored at each CSRA bisection step, one full-scale cell per pilot SNR.

    python3 scripts/survivor_counts.py BENCH_screening.json

Builds trial 0 of ``configs/pilot_sweep_full.json`` at each of its pilot
SNRs and solves CSRA on the cell's PCSI and ICSI instances.  Every
midpoint evaluation is counted by the rows it scores: all of them until
both bracket ends exist, the survivors of the screen after that.  The
counts go into section ``survivors`` of the given BENCH file, which is
created if it does not exist.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ofdma_sra import csra, experiments  # noqa: E402
from ofdma_sra.experiments import ScenarioConfig  # noqa: E402

CONFIG = ROOT / "configs" / "pilot_sweep_full.json"


def count_steps(inst, kappa) -> dict:
    """One CSRA solve with the rows each evaluation scored, in order."""
    evaluate = csra.evaluate_mu
    steps = []

    def counted(instance, mu, at_lo=None, at_hi=None):
        ev = evaluate(instance, mu, at_lo, at_hi)
        steps.append({"screened": at_lo is not None and at_hi is not None,
                      "rows": int(np.count_nonzero(np.isfinite(ev.v)))})
        return ev

    csra.evaluate_mu = counted
    try:
        t0 = perf_counter()
        res = csra.solve_csra(inst, kappa)
        seconds = perf_counter() - t0
    finally:
        csra.evaluate_mu = evaluate
    return {"iterations": res.iterations, "rows_total": int(np.prod(inst.shape)),
            "solve_s": seconds, "steps": steps}


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
            cell[name] = count_steps(parts[name], swept.kappa)
        cells.append(cell)
        print(value, [[st["rows"] for st in cell[n]["steps"]]
                      for n in ("pcsi", "icsi")], file=sys.stderr)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["survivors"] = {"config": str(CONFIG.relative_to(ROOT)),
                        "cells": cells}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
