"""Benchmark workloads, the cells they run, and the per-cell correctness checks.

A *cell* is one (sweep value, trial) pair, i.e. one call of
``experiments.run_trial``.  A *round* is one trial at every sweep value of a
workload; rounds are numbered ``0 .. pool-1`` and ``reference.json`` holds
the utility and goodput of every cell of every round, recorded from the
program by ``make_reference.py``.  The benchmark seed only picks the order
in which a run walks through the pool, so any seed runs checked cells.

Every workload is a closed loop with one client: the next round starts when
the previous one has returned.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

if not (ROOT / "src" / "ofdma_sra" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no ofdma_sra sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from ofdma_sra import experiments  # noqa: E402
from ofdma_sra.experiments import ScenarioConfig  # noqa: E402

# Tolerances of the per-cell checks.
BUDGET_RTOL = 1e-9      # CSRA total power equals P_con
DOMINANCE_RTOL = 1e-9   # DSRA-ICSI utility <= CSRA-ICSI utility
REFERENCE_RTOL = 1e-6   # utility and goodput against reference.json
REFERENCE_ATOL = 1e-12

_QAM4_GOODPUT = {
    "channel": {"n_subchannels": 16, "n_users": 4, "tap_count": 2,
                "snr_db": 10.0, "pilot_snr_db": -10.0},
    "mcs": {"preset": "qam", "n_mcs": 4},
    "utility": {"variant": "goodput"},
    "n_atoms": 32,
}

# configs/pilot_sweep_desk.json with one trial per round; rounds differ in
# their root seed because run_scenario always starts at trial 0.
DESK_SWEEP = dict(
    _QAM4_GOODPUT,
    sweep={"variable": "pilot_snr_db",
           "values": [-20.0, -15.0, -10.0, -5.0, 0.0, 10.0]},
    n_trials=1, seed=606,
    schemes=["CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS"])

# The shape of configs/pilot_sweep_full.json at its -10 dB channel default;
# one pilot SNR keeps the cost of a cell within a few percent across trials.
FULL_TRIAL = {
    "channel": {"n_subchannels": 64, "n_users": 16, "tap_count": 2,
                "snr_db": 10.0, "pilot_snr_db": -10.0},
    "mcs": {"preset": "qam", "n_mcs": 15},
    "utility": {"variant": "goodput"},
    "sweep": {"variable": "pilot_snr_db", "values": [-10.0]},
    "n_trials": 1, "seed": 1000, "n_atoms": 64,
    "schemes": ["CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS"],
}

# configs/pricing_sweep_desk.json: exp-pricing utility, two weight classes,
# DSRA running its own CSRA solve, FP-RUS on the channel prior.
PRICING_DSRA = {
    "channel": {"n_subchannels": 16, "n_users": 4, "tap_count": 2,
                "snr_db": 0.0, "pilot_snr_db": -10.0},
    "mcs": {"preset": "qam", "n_mcs": 4},
    "utility": {"variant": "exp_pricing", "class_weights": [0.85, 1.0]},
    "sweep": {"variable": "weight_w1",
              "values": [0.25, 0.5, 0.85, 1.0, 1.5, 2.0]},
    "n_trials": 1, "seed": 609, "n_atoms": 32,
    "schemes": ["DSRA-ICSI", "FP-RUS"],
}


@dataclass(frozen=True)
class Workload:
    """A scenario config, the size of its reference pool, and how rounds run."""

    name: str
    config: dict            # ScenarioConfig.from_dict input
    pool: int               # rounds with recorded reference values
    through_scenario: bool  # each round is one run_scenario call (CSV output)

    def scenario(self) -> ScenarioConfig:
        return ScenarioConfig.from_dict(self.config)

    def order(self, seed: int) -> list[int]:
        """Seed-dependent walk through the pool; runs cycle through it."""
        return [int(r) for r in np.random.default_rng(seed).permutation(self.pool)]

    def cell_keys(self, round_id: int) -> list[str]:
        cfg = self.scenario()
        if self.through_scenario:
            root, trial = cfg.seed + round_id, 0
        else:
            root, trial = cfg.seed, round_id
        return [cell_key(root, s, trial) for s in range(len(cfg.sweep_values))]

    def run_round(self, cfg: ScenarioConfig, round_id: int, out_dir: Path) -> None:
        """One trial at every sweep value, through the program's public entry."""
        if self.through_scenario:
            experiments.run_scenario(replace(cfg, seed=cfg.seed + round_id),
                                     out_dir)
        else:
            for s in range(len(cfg.sweep_values)):
                experiments.run_trial(cfg, s, round_id)


WORKLOADS = {w.name: w for w in (
    # Many small trials: per-call Python overhead and the 2^-20-tight
    # fixed-allocation refinement dominate; CSV output is on the path.
    Workload("desk_sweep", DESK_SWEEP, pool=128, through_scenario=True),
    # 15 360 kernel rows per evaluate_mu: the batched power-root kernel.
    Workload("full_trial", FULL_TRIAL, pool=64, through_scenario=False),
    # Utility code 2 in the kernels and solve_dsra without a CSRA result;
    # no point-mass instance.
    Workload("pricing_dsra", PRICING_DSRA, pool=160, through_scenario=False),
)}


def cell_key(root_seed: int, sweep_index: int, trial: int) -> str:
    return f"{root_seed}:{sweep_index}:{trial}"


def prepare(config: dict) -> ScenarioConfig:
    """Set-up: parse the config and build the first cell's packed instances."""
    cfg = ScenarioConfig.from_dict(config)
    swept = cfg.at_sweep_value(cfg.sweep_values[0])
    parts = experiments.build_trial_instances(
        swept, experiments.trial_seed(cfg.seed, 0, 0))
    for name in ("icsi", "pcsi", "prior"):
        parts[name].flat()
    return cfg


def load_reference(name: str) -> dict:
    return reference_rows(json.loads(REFERENCE_PATH.read_text())[name])


def reference_rows(table: dict) -> dict:
    """Cell key -> rows ``[scheme, goodput, utility]`` of a stored table.

    A table holds the workload's schemes once and, per cell, the goodput and
    utility of each scheme in turn, to the 12 digits trials.csv carries.
    """
    schemes = table["schemes"]
    return {key: [[s, v[2 * i], v[2 * i + 1]] for i, s in enumerate(schemes)]
            for key, v in table["cells"].items()}


# ---------------------------------------------------------------------------
# cell capture and checks
# ---------------------------------------------------------------------------


@dataclass
class Cell:
    key: str
    seconds: float = 0.0
    records: list = field(default_factory=list)
    # (P_con, CsraResult) of every CSRA solve, DSRA's own included
    csra: list = field(default_factory=list)
    dsra: list = field(default_factory=list)


class CellLog:
    """Collects each cell's wall time, records and solver results.

    It wraps ``run_trial`` and the two solvers where ``experiments`` looks
    them up, so the same capture works for cells run by ``run_scenario``.
    """

    def __init__(self):
        self.pending: list[Cell] = []
        self._current: Cell | None = None

    def install(self, patches) -> None:
        patches.wrap(experiments, "run_trial", self._wrap_trial)
        patches.wrap(experiments, "solve_csra", self._wrap_csra)
        patches.wrap(experiments, "solve_dsra", self._wrap_dsra)

    def drain(self) -> list[Cell]:
        cells, self.pending = self.pending, []
        return cells

    def _wrap_trial(self, fn):
        def run_trial(cfg, sweep_index, trial):
            cell = Cell(cell_key(cfg.seed, sweep_index, trial))
            self._current = cell
            t0 = perf_counter()
            try:
                cell.records = fn(cfg, sweep_index, trial)
            finally:
                cell.seconds = perf_counter() - t0
                self._current = None
            self.pending.append(cell)
            return cell.records
        return run_trial

    def _wrap_csra(self, fn):
        def solve_csra(inst, *args, **kwargs):
            res = fn(inst, *args, **kwargs)
            if self._current is not None:
                self._current.csra.append((inst.p_con, res))
            return res
        return solve_csra

    def _wrap_dsra(self, fn):
        def solve_dsra(inst, *args, **kwargs):
            res = fn(inst, *args, **kwargs)
            if self._current is not None:
                self._current.dsra.append(res)
                if res.csra is not None:
                    self._current.csra.append((inst.p_con, res.csra))
            return res
        return solve_dsra


def check_cell(cell: Cell, expected: list | None) -> list[str]:
    """Failures of one cell; ``expected`` is its reference rows, if checked.

    Reference rows are ``[scheme, goodput_per_subchannel, utility]`` in the
    order run_trial returns its records.
    """
    errors = []
    by_scheme = {r.scheme: r for r in cell.records}
    for p_con, res in cell.csra:
        spent = res.alloc.total_power
        if not abs(spent - p_con) <= BUDGET_RTOL * p_con:
            errors.append(f"CSRA power {spent!r} != budget {p_con!r}")
        if not (math.isfinite(res.gap_bound) and res.gap_bound >= 0.0):
            errors.append(f"CSRA gap bound {res.gap_bound!r}")
    for res in cell.dsra:
        if not (math.isfinite(res.gap_bound) and res.gap_bound >= 0.0):
            errors.append(f"DSRA gap bound {res.gap_bound!r}")
    if "DSRA-ICSI" in by_scheme and "CSRA-ICSI" in by_scheme:
        d, c = by_scheme["DSRA-ICSI"].utility, by_scheme["CSRA-ICSI"].utility
        if not d <= c + DOMINANCE_RTOL * max(1.0, abs(c)):
            errors.append(f"DSRA utility {d!r} above CSRA utility {c!r}")
    if expected is not None:
        schemes = [r.scheme for r in cell.records]
        if schemes != [e[0] for e in expected]:
            errors.append(f"schemes {schemes} != {[e[0] for e in expected]}")
            return errors
        for r, (_, goodput, utility) in zip(cell.records, expected):
            for what, x, ref in (("goodput", r.goodput_per_subchannel, goodput),
                                 ("utility", r.utility, utility)):
                if not math.isclose(x, ref, rel_tol=REFERENCE_RTOL,
                                    abs_tol=REFERENCE_ATOL):
                    errors.append(f"{r.scheme} {what} {x!r} != reference {ref!r}")
    return errors


def check_trials_csv(path: Path, cells: list[Cell]) -> list[str]:
    """run_scenario's trials.csv holds exactly the cells' records."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = sorted((r.scheme, r.trial, r.sweep_value, r.utility)
                  for c in cells for r in c.records)
    got = sorted((row["scheme"], int(row["trial"]), float(row["sweep_value"]),
                  float(row["utility"])) for row in rows)
    if len(got) != len(want):
        return [f"trials.csv has {len(got)} rows, expected {len(want)}"]
    for g, w in zip(got, want):
        if g[:3] != w[:3] or not math.isclose(g[3], w[3], rel_tol=1e-11):
            return [f"trials.csv row {g} does not match record {w}"]
    return []
