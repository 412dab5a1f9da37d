#!/usr/bin/env python3
"""Record reference.json: utility and goodput of every cell in every pool.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every round of each named workload (all by default) through the same
round code as the benchmark, applies the per-cell checks that need no
reference, and writes the records, one cell per line.  Re-record only when
a change is meant to alter the program's numbers beyond REFERENCE_RTOL.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (pins BLAS/OpenMP threads before numpy loads)
from tracing import Patches
from workloads import (REFERENCE_PATH, ROOT, WORKLOADS, CellLog, Workload,
                       check_cell)


def record(wl: Workload) -> dict:
    """Reference table of every cell of ``wl``'s pool (see reference_rows)."""
    cfg = wl.scenario()
    log = CellLog()
    cells, worst_budget = {}, 0.0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, \
            Patches() as patches:
        log.install(patches)
        for rid in range(wl.pool):
            wl.run_round(cfg, rid, Path(tmp) / f"round-{rid}")
            for cell in log.drain():
                errors = check_cell(cell, None)
                if errors:
                    raise SystemExit(f"{wl.name} cell {cell.key}: {errors}")
                for p_con, res in cell.csra:
                    worst_budget = max(worst_budget,
                                       abs(res.alloc.total_power - p_con) / p_con)
                cells[cell.key] = [float(f"{x:.12g}") for r in cell.records
                                   for x in (r.goodput_per_subchannel, r.utility)]
    print(f"{wl.name}: {len(cells)} cells, worst relative CSRA budget "
          f"error {worst_budget:.3g}", file=sys.stderr)
    return {"schemes": list(cfg.schemes), "cells": cells}


def write(tables: dict, path: Path = REFERENCE_PATH) -> None:
    parts = []
    for name, table in tables.items():
        cells = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in table["cells"].items())
        parts.append(f"{json.dumps(name)}: {{\"schemes\": "
                     f"{json.dumps(table['schemes'])}, \"cells\": {{\n{cells}\n}}}}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def main(names: list[str]) -> int:
    tables = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names or list(WORKLOADS):
        tables[name] = record(WORKLOADS[name])
    write({name: tables[name] for name in WORKLOADS if name in tables})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
