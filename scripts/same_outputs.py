#!/usr/bin/env python3
"""Check that two checkouts write the same run outputs.

    python3 scripts/same_outputs.py PARENT CHANGE [CONFIG ...] [--schemes A,B,...]
        [--rtol R]

PARENT and CHANGE are checkout directories.  Each CONFIG (by default the
CHANGE checkout's ``configs/*_desk.json``) is run once with each
checkout's ``src/`` (``python -m ofdma_sra.cli run CONFIG``), the two sides
at the same time, into a temporary directory.  ``--schemes`` is passed
through to both runs, in place of the configs' own scheme lists.  The
outputs compared are

* ``trials.csv`` without its ``runtime_ms`` column,
* ``summary.csv``, byte for byte,
* ``manifest.json`` without ``runtime_s``; a differing manifest is listed
  with the top-level keys that differ, as in
  ``manifest.json (config, config_sha256)``.

With ``--rtol R``, ``trials.csv`` is compared as numbers instead: the line
of a config gives each column's largest relative difference
|a - b| / max(|a|, |b|), and the run fails the gate when ``utility`` or
``goodput_per_subchannel`` moves by more than R.  Text cells, the shape of
the table and the manifest must still match; ``summary.csv`` is made from
``trials.csv`` and is not compared.

Prints one line per config.  Exits 0 when every output matches (within R),
1 when any differs (beyond R) and 2 when a run fails.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _trials(path: Path) -> list:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("runtime_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


def _manifest(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("runtime_s")
    return doc


GATED = ("goodput_per_subchannel", "utility")  # the columns --rtol bounds
MISSING = object()  # a manifest key one side lacks
READERS = {"trials.csv": _trials, "summary.csv": Path.read_bytes,
           "manifest.json": _manifest}


def differences(run_a: Path, run_b: Path) -> list[str]:
    """The outputs of two run directories that differ, timings aside; the
    manifest's entry names its top-level keys that differ."""
    found = []
    for name, read in READERS.items():
        a, b = read(run_a / name), read(run_b / name)
        if a == b:
            continue
        if isinstance(a, dict):  # manifest.json
            keys = [k for k in sorted(a.keys() | b.keys())
                    if a.get(k, MISSING) != b.get(k, MISSING)]
            name += f" ({', '.join(keys)})"
        found.append(name)
    return found


def _drift(a: str, b: str) -> float:
    """Relative difference of two cells; inf unless both are numbers or
    both the same text."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else 0.0


def drifts(run_a: Path, run_b: Path) -> dict[str, float]:
    """Each trials.csv column's largest relative difference, timings aside:
    inf for a column whose text differs, for every column when the tables'
    shapes differ, and for ``manifest.json`` unless it matches."""
    rows_a, rows_b = _trials(run_a / "trials.csv"), _trials(run_b / "trials.csv")
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        found = dict.fromkeys(rows_a[0] + rows_b[0], math.inf)
    else:
        found = {col: max([_drift(ra[i], rb[i])
                           for ra, rb in zip(rows_a[1:], rows_b[1:])],
                          default=0.0)
                 for i, col in enumerate(rows_a[0])}
    same = _manifest(run_a / "manifest.json") == _manifest(run_b / "manifest.json")
    found["manifest.json"] = 0.0 if same else math.inf
    return found


def beyond(found: dict[str, float], rtol: float) -> list[str]:
    """The drifts that fail the gate: any inf, and a gated column past rtol."""
    return [k for k, v in found.items()
            if v == math.inf or (k in GATED and not v <= rtol)]


def start_run(checkout: Path, config: Path, out: Path,
              schemes: str | None = None) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(checkout / "src"),
                                         os.environ.get("PYTHONPATH")]))
    flags = [] if schemes is None else ["--schemes", schemes]
    return subprocess.Popen(
        [sys.executable, "-m", "ofdma_sra.cli", "run", str(config),
         "--out", str(out), *flags],
        cwd=checkout, env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("configs", nargs="*", type=Path, metavar="CONFIG")
    parser.add_argument("--schemes", help="comma-separated schemes to run")
    parser.add_argument("--rtol", type=float, metavar="R",
                        help="compare trials.csv as numbers: utility and "
                        "goodput may move by a relative R")
    args = parser.parse_args(argv)
    checkouts = [args.parent.resolve(), args.change.resolve()]
    configs = ([c.resolve() for c in args.configs]
               or sorted((checkouts[1] / "configs").glob("*_desk.json")))
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            runs = [Path(tmp) / f"{i}-{side}" for side in ("parent", "change")]
            procs = [start_run(c, config, r, args.schemes)
                     for c, r in zip(checkouts, runs)]
            errors = [proc.communicate()[1] for proc in procs]
            for checkout, proc, err in zip(checkouts, procs, errors):
                if proc.returncode != 0:
                    print(f"{config}: the run in {checkout} failed:\n{err}",
                          file=sys.stderr)
                    return 2
            if args.rtol is None:
                diff = differences(*runs)
                print(f"{config.name}: "
                      + (f"differs in {', '.join(diff)}" if diff else "same"))
            else:
                found = drifts(*runs)
                diff = beyond(found, args.rtol)
                print(f"{config.name}: "
                      + ", ".join(f"{k} {v:.2g}" for k, v in found.items())
                      + f"; {'beyond' if diff else 'within'} rtol {args.rtol:g}")
            if diff:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
