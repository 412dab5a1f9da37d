"""Command-line scenario runner.

    ofdma-sra run scenario.json --out results/ \
        --schemes CSRA-ICSI,DSRA-ICSI,FP-RUS --threads 4

The root seed is the config's ``seed``.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import ConfigError, ScenarioConfig, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdma-sra",
        description="OFDMA downlink scheduling/power-allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep scenario from a JSON config")
    run.add_argument("config", help="path to the scenario JSON file")
    run.add_argument("--out", default="runs/latest",
                     help="output directory (default: runs/latest)")
    run.add_argument("--schemes", default=None,
                     help="comma-separated scheme subset to run")
    run.add_argument("--threads", type=int, default=1,
                     help="parallel trial workers (default: 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ScenarioConfig.from_file(args.config)
        if args.schemes is not None:
            names = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
            cfg = dataclasses.replace(cfg, schemes=names)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.threads < 1:
        print("config error: --threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_scenario(cfg, args.out, threads=args.threads)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"wrote {result['trials_csv']} ({len(result['records'])} rows), "
          f"{result['summary_csv']}, {result['manifest']}")
    return EXIT_OK


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
