#!/usr/bin/env python3
"""Peak memory by stage for trial 0 of one config, written to a BENCH file.

    PYTHONPATH=CHECKOUT/src python3 scripts/peak_memory.py CONFIG BENCH_FILE

Takes trial 0 at the config's first sweep value and records, in MB:

* ``rss_mb``: the process's resident-memory high-water mark (``ru_maxrss``)
  after importing the package (``import``), after
  ``build_trial_instances`` (``build``) and after ``flat()`` of the cell's
  ICSI, PCSI and prior instances (``flat``);
* ``run_trial_tracemalloc_peak_mb``: the ``tracemalloc`` peak of one
  ``run_trial`` of the same cell, which builds its instances afresh.

The package is whichever ``ofdma_sra`` is importable, so the same script
measures any checkout.  The entry, with that checkout's git revision and
whether its work tree had uncommitted changes, goes into the list in section
``memory`` of BENCH_FILE (created if it does not exist), replacing an
earlier entry of the same revision, state and config.
"""

import json
import resource
import sys
import tracemalloc
from pathlib import Path

import ofdma_sra
from ofdma_sra import experiments
from ofdma_sra.experiments import ScenarioConfig

from bench_pairs import git_state


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    config, path = Path(argv[0]), Path(argv[1])
    rss = {"import": rss_mb()}
    cfg = ScenarioConfig.from_dict(json.loads(config.read_text()))
    swept = cfg.at_sweep_value(cfg.sweep_values[0])
    parts = experiments.build_trial_instances(
        swept, experiments.trial_seed(cfg.seed, 0, 0))
    rss["build"] = rss_mb()
    for name in ("icsi", "pcsi", "prior"):
        parts[name].flat()
    rss["flat"] = rss_mb()
    del parts
    tracemalloc.start()
    experiments.run_trial(swept, 0, 0)
    peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    tracemalloc.stop()
    entry = {**git_state(Path(ofdma_sra.__file__).resolve().parents[2]),
             "config": config.name, "sweep_value": float(cfg.sweep_values[0]),
             "trial": 0, "rss_mb": rss, "run_trial_tracemalloc_peak_mb": peak}
    print(json.dumps(entry))
    doc = json.loads(path.read_text()) if path.exists() else {}
    key = ("rev", "dirty", "config")
    doc["memory"] = [e for e in doc.get("memory", [])
                     if [e[k] for k in key] != [entry[k] for k in key]]
    doc["memory"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
