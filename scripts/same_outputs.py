#!/usr/bin/env python3
"""Check that two checkouts write the same run outputs.

    python3 scripts/same_outputs.py PARENT CHANGE [CONFIG ...] [--schemes A,B,...]

PARENT and CHANGE are checkout directories.  Each CONFIG (by default the
CHANGE checkout's ``configs/*_desk.json``) is run once with each
checkout's ``src/`` (``python -m ofdma_sra.cli run CONFIG``), the two sides
at the same time, into a temporary directory.  ``--schemes`` is passed
through to both runs, in place of the configs' own scheme lists.  The
outputs compared are

* ``trials.csv`` without its ``runtime_ms`` column,
* ``summary.csv``, byte for byte,
* ``manifest.json`` without ``runtime_s``.

Prints one line per config.  Exits 0 when every output matches, 1 when any
differs and 2 when a run fails.
"""

import argparse
import csv
import json
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


READERS = {"trials.csv": _trials, "summary.csv": Path.read_bytes,
           "manifest.json": _manifest}


def differences(run_a: Path, run_b: Path) -> list[str]:
    """The outputs of two run directories that differ, timings aside."""
    return [name for name, read in READERS.items()
            if read(run_a / name) != read(run_b / name)]


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
            diff = differences(*runs)
            print(f"{config.name}: "
                  + (f"differs in {', '.join(diff)}" if diff else "same"))
            if diff:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
