#!/usr/bin/env python3
"""Posterior-atom build time per pilot SNR, one full-scale trial each.

    PYTHONPATH=CHECKOUT/src python3 scripts/atom_build_times.py [REPEATS]

Builds trial 0 of ``configs/pilot_sweep_full.json`` at each of its pilot
SNRs up to the pilot estimate, then times ``conditional_snr_dist`` on it:
the best of REPEATS calls (default 5).  One more call counts the points
given to each special function ``ofdma_sra.snr`` imports from
``scipy.special``.  The package is whichever ``ofdma_sra`` is importable,
so the same script measures any checkout.  Prints one line per pilot SNR.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from ofdma_sra import snr
from ofdma_sra.experiments import ScenarioConfig, trial_seed

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pilot_sweep_full.json"
COUNTED = ("chndtr", "chndtrix", "chdtr", "gammaincinv", "i0e", "i1e")


def counted_points(build) -> dict:
    """Points each special function of ``snr`` evaluates in one build."""
    points = {}

    def counting(name, fn):
        def wrapper(*args):
            out = fn(*args)
            points[name] = points.get(name, 0) + np.size(out)
            return out
        return wrapper

    saved = {name: getattr(snr, name) for name in COUNTED if hasattr(snr, name)}
    try:
        for name, fn in saved.items():
            setattr(snr, name, counting(name, fn))
        build()
    finally:
        for name, fn in saved.items():
            setattr(snr, name, fn)
    return points


def main(repeats: int = 5) -> int:
    cfg = ScenarioConfig.from_dict(json.loads(CONFIG.read_text()))
    for index, value in enumerate(cfg.sweep_values):
        ch = cfg.at_sweep_value(value).channel
        seed = trial_seed(cfg.seed, index, 0)
        est = snr.mmse_estimate(ch, snr.draw_channel(ch, seed), seed)

        def build():
            return snr.conditional_snr_dist(est.mean, est.est_error_var,
                                            cfg.n_atoms)

        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            build()
            times.append(perf_counter() - t0)
        nc = 2.0 * np.abs(est.mean) ** 2 / est.est_error_var
        points = " ".join(f"{k} {v}" for k, v in counted_points(build).items())
        print(f"pilot {value:+g} dB: best {min(times) * 1e3:.1f} ms of "
              f"{repeats}, median nc {np.median(nc):.3g}, points: {points}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
