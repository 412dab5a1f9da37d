"""Seeded Monte-Carlo scenario runner with CSV outputs.

One trial = draw a channel, observe pilots, build the conditional SNR
atoms, and run the selected schemes on the resulting instances:

* ``CSRA-PCSI``    continuous solve on point masses at the true SNRs,
* ``CSRA-ICSI``    continuous solve on the pilot posteriors,
* ``DSRA-ICSI``    discrete solve on the pilot posteriors,
* ``FP-RUS``       random user, fixed power, goodput-best MCS (prior only),
* ``SUBGRAD-ICSI`` projected-subgradient dual update on the posteriors.

Reported goodputs/utilities are expectations under the information each
scheme optimized against (posterior atoms, true point masses, or the
channel prior).  Per-trial numbers are therefore deterministic given the
seed, and trial averages estimate the same physical quantity for every
scheme by iterated expectation.

Outputs: ``trials.csv`` (one row per sweep value, trial, scheme, columns
sweep_var, sweep_value, trial, scheme, goodput_per_subchannel, utility,
gap_bound_per_subchannel, mu_lo, mu_hi, iters, runtime_ms), ``summary.csv``
(per sweep value and scheme means and standard errors), and
``manifest.json`` (config hash, seed, version, output inventory).

Trials are independent; with ``threads > 1`` they run in a process pool.
Per-trial seeds derive from (root seed, sweep index, trial index), so
results do not depend on scheduling.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import fp_rus_baseline, subgradient_baseline
from .csra import solve_csra
from .dsra import solve_dsra
from .dual import (AllocationState, ProblemInstance, allocation_at_mu,
                   allocation_goodput, allocation_utility)
from .snr import (ChannelConfig, SnrDistribution, conditional_snr_dist,
                  draw_channel, mmse_estimate)
from .utility import McsTable, UtilitySpec

ALL_SCHEMES = ("CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS", "SUBGRAD-ICSI")
SWEEP_VARIABLES = ("pilot_snr_db", "n_users", "snr_db", "weight_w1")

TRIALS_COLUMNS = ("sweep_var", "sweep_value", "trial", "scheme",
                  "goodput_per_subchannel", "utility",
                  "gap_bound_per_subchannel", "mu_lo", "mu_hi", "iters",
                  "runtime_ms")
SUMMARY_COLUMNS = ("sweep_var", "sweep_value", "scheme", "n_trials",
                   "mean_goodput_per_subchannel", "se_goodput_per_subchannel",
                   "mean_utility", "mean_gap_bound_per_subchannel")


class ConfigError(ValueError):
    """Scenario configuration is malformed (reported with the field path)."""


@dataclass(frozen=True)
class UtilityConfig:
    variant: str = "goodput"
    class_weights: tuple[float, ...] | None = None  # users split into equal classes
    weights: tuple[float, ...] | None = None        # explicit per-user weights
    scale: float = 1.0                              # capacity-log only

    def realize(self, n_users: int) -> UtilitySpec:
        if self.variant == "goodput":
            return UtilitySpec.goodput(n_users)
        if self.variant == "capacity_log":
            return UtilitySpec.capacity_log(self.scale, n_users)
        if self.weights is not None:
            if len(self.weights) != n_users:
                raise ConfigError(
                    f"utility.weights: expected {n_users} entries, "
                    f"got {len(self.weights)}")
            w = np.asarray(self.weights, dtype=float)
        elif self.class_weights:
            parts = np.array_split(np.arange(n_users), len(self.class_weights))
            w = np.empty(n_users)
            for cw, idx in zip(self.class_weights, parts):
                w[idx] = cw
        else:
            raise ConfigError(f"utility.{self.variant}: needs weights or "
                              "class_weights")
        if self.variant == "weighted_goodput":
            return UtilitySpec.weighted_goodput(w)
        if self.variant == "exp_pricing":
            return UtilitySpec.exp_pricing(w)
        raise ConfigError(f"utility.variant: unknown variant {self.variant!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one sweep experiment (desk-scale defaults)."""

    channel: ChannelConfig = ChannelConfig(n_subchannels=16, n_users=4)
    mcs_preset: str = "qam"
    n_mcs: int = 4
    utility: UtilityConfig = UtilityConfig()
    sweep_variable: str = "pilot_snr_db"
    sweep_values: tuple[float, ...] = (-10.0,)
    n_trials: int = 50
    seed: int = 0
    kappa: float | None = None     # None -> 0.3 / P_con
    n_atoms: int = 32
    schemes: tuple[str, ...] = ALL_SCHEMES
    subgradient_updates: int = 15
    subgradient_scale: float = 1.0

    def __post_init__(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable: unknown variable "
                              f"{self.sweep_variable!r}")
        if not self.sweep_values:
            raise ConfigError("sweep.values: must be non-empty")
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ConfigError("sweep.values: duplicate values")
        if self.n_trials < 1:
            raise ConfigError("n_trials: must be at least 1")
        if self.mcs_preset not in ("qam", "capacity"):
            raise ConfigError(f"mcs.preset: unknown preset {self.mcs_preset!r}")
        if self.n_atoms < 1:
            raise ConfigError("n_atoms: must be at least 1")
        for s in self.schemes:
            if s not in ALL_SCHEMES:
                raise ConfigError(f"schemes: unknown scheme {s!r}")

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        allowed = {"channel", "mcs", "utility", "sweep", "n_trials", "seed",
                   "kappa", "n_atoms", "schemes", "subgradient"}
        _reject_unknown(raw, allowed, "")
        channel = _parse_channel(raw.get("channel", {}))
        mcs_preset, n_mcs = _parse_mcs(raw.get("mcs", {}))
        util = _parse_utility(raw.get("utility", {}))
        sweep_var, sweep_vals = _parse_sweep(raw.get("sweep", {}))
        sub_updates, sub_scale = _parse_subgradient(raw.get("subgradient", {}))
        try:
            return cls(
                channel=channel, mcs_preset=mcs_preset, n_mcs=n_mcs,
                utility=util, sweep_variable=sweep_var, sweep_values=sweep_vals,
                n_trials=int(raw.get("n_trials", 50)),
                seed=int(raw.get("seed", 0)),
                kappa=(None if raw.get("kappa") is None else float(raw["kappa"])),
                n_atoms=int(raw.get("n_atoms", 32)),
                schemes=tuple(raw.get("schemes", ALL_SCHEMES)),
                subgradient_updates=sub_updates, subgradient_scale=sub_scale)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        ch = dataclasses.asdict(self.channel)
        return {
            "channel": ch,
            "mcs": {"preset": self.mcs_preset, "n_mcs": self.n_mcs},
            "utility": {k: v for k, v in dataclasses.asdict(self.utility).items()
                        if v is not None},
            "sweep": {"variable": self.sweep_variable,
                      "values": list(self.sweep_values)},
            "n_trials": self.n_trials,
            "seed": self.seed,
            "kappa": self.kappa,
            "n_atoms": self.n_atoms,
            "schemes": list(self.schemes),
            "subgradient": {"updates": self.subgradient_updates,
                            "scale": self.subgradient_scale},
        }

    def at_sweep_value(self, value: float) -> "ScenarioConfig":
        """Scenario with the sweep variable substituted."""
        if self.sweep_variable == "pilot_snr_db":
            ch = replace(self.channel, pilot_snr_db=float(value))
            return replace(self, channel=ch)
        if self.sweep_variable == "snr_db":
            ch = replace(self.channel, snr_db=float(value))
            return replace(self, channel=ch)
        if self.sweep_variable == "n_users":
            ch = replace(self.channel, n_users=int(value))
            return replace(self, channel=ch)
        # weight_w1
        if not self.utility.class_weights:
            raise ConfigError("sweep.variable weight_w1 requires "
                              "utility.class_weights")
        cw = (float(value),) + tuple(self.utility.class_weights[1:])
        return replace(self, utility=replace(self.utility, class_weights=cw))


def _reject_unknown(d: dict, allowed: set, prefix: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key {prefix}{key!r}")


def _parse_channel(raw: dict) -> ChannelConfig:
    _reject_unknown(raw, {"n_subchannels", "n_users", "tap_count",
                          "tap_variance", "snr_db", "pilot_snr_db"}, "channel.")
    try:
        return ChannelConfig(
            n_subchannels=int(raw.get("n_subchannels", 16)),
            n_users=int(raw.get("n_users", 4)),
            tap_count=int(raw.get("tap_count", 2)),
            tap_variance=(None if raw.get("tap_variance") is None
                          else float(raw["tap_variance"])),
            snr_db=float(raw.get("snr_db", 10.0)),
            pilot_snr_db=float(raw.get("pilot_snr_db", -10.0)))
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def _parse_mcs(raw: dict) -> tuple[str, int]:
    _reject_unknown(raw, {"preset", "n_mcs"}, "mcs.")
    return str(raw.get("preset", "qam")), int(raw.get("n_mcs", 4))


def _parse_utility(raw: dict) -> UtilityConfig:
    _reject_unknown(raw, {"variant", "class_weights", "weights", "scale"},
                    "utility.")
    return UtilityConfig(
        variant=str(raw.get("variant", "goodput")),
        class_weights=(None if raw.get("class_weights") is None
                       else tuple(float(v) for v in raw["class_weights"])),
        weights=(None if raw.get("weights") is None
                 else tuple(float(v) for v in raw["weights"])),
        scale=float(raw.get("scale", 1.0)))


def _parse_sweep(raw: dict) -> tuple[str, tuple[float, ...]]:
    _reject_unknown(raw, {"variable", "values"}, "sweep.")
    values = raw.get("values", [-10.0])
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values: must be a non-empty list")
    return (str(raw.get("variable", "pilot_snr_db")),
            tuple(float(v) for v in values))


def _parse_subgradient(raw: dict) -> tuple[int, float]:
    _reject_unknown(raw, {"updates", "scale"}, "subgradient.")
    return int(raw.get("updates", 15)), float(raw.get("scale", 1.0))


# ---------------------------------------------------------------------------
# per-trial pipeline
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    sweep_var: str
    sweep_value: float
    trial: int
    scheme: str
    goodput_per_subchannel: float
    utility: float
    gap_bound_per_subchannel: float | None
    mu_lo: float | None
    mu_hi: float | None
    iters: int
    runtime_ms: float


def trial_seed(root_seed: int, sweep_index: int, trial: int) -> int:
    """Deterministic per-trial seed from (root seed, sweep index, trial)."""
    ss = np.random.SeedSequence((root_seed, sweep_index, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def build_trial_instances(cfg: ScenarioConfig, seed: int) -> dict:
    """Channel draw, pilot estimation, and the per-scheme problem instances."""
    ch = cfg.channel
    realization = draw_channel(ch, seed)
    est = mmse_estimate(ch, realization, seed)

    k_users = ch.n_users
    if cfg.mcs_preset == "qam":
        mcs = McsTable.qam(k_users, cfg.n_mcs)
    else:
        mcs = McsTable.capacity(k_users)
    util = cfg.utility.realize(k_users)

    icsi = [[conditional_snr_dist(est.mean[n, k], est.est_error_var, cfg.n_atoms)
             for k in range(k_users)] for n in range(ch.n_subchannels)]
    pcsi = [[SnrDistribution.point_mass(realization.true_snr[n, k])
             for k in range(k_users)] for n in range(ch.n_subchannels)]
    # channel prior: taps are CN(0, sigma_g^2) so gamma ~ |CN(0, L*sigma_g2)|^2;
    # one shared discretization since the prior is user/subchannel independent
    prior_var = ch.tap_count * ch.sigma_g2
    prior = conditional_snr_dist(0.0, prior_var, cfg.n_atoms)
    prior_rows = [[prior for _ in range(k_users)] for _ in range(ch.n_subchannels)]

    p_con = ch.p_con
    return {
        "realization": realization,
        "estimate": est,
        "icsi": ProblemInstance(mcs=mcs, utility=util, dists=icsi, p_con=p_con),
        "pcsi": ProblemInstance(mcs=mcs, utility=util, dists=pcsi, p_con=p_con),
        "prior": ProblemInstance(mcs=mcs, utility=util, dists=prior_rows,
                                 p_con=p_con),
    }


def _metrics(inst: ProblemInstance, alloc: AllocationState) -> tuple[float, float]:
    goodput = allocation_goodput(inst, alloc) / inst.n_subchannels
    return goodput, allocation_utility(inst, alloc)


def run_trial(cfg: ScenarioConfig, sweep_index: int, trial: int) -> list[TrialRecord]:
    """All scheme records for one (sweep value, trial) cell."""
    value = cfg.sweep_values[sweep_index]
    swept = cfg.at_sweep_value(value)
    seed = trial_seed(cfg.seed, sweep_index, trial)
    parts = build_trial_instances(swept, seed)
    kappa = swept.kappa
    records = []

    def record(scheme, goodput, utility, gap=None, mu_lo=None, mu_hi=None,
               iters=0, dt=0.0):
        records.append(TrialRecord(
            sweep_var=cfg.sweep_variable, sweep_value=value, trial=trial,
            scheme=scheme, goodput_per_subchannel=goodput, utility=utility,
            gap_bound_per_subchannel=gap, mu_lo=mu_lo, mu_hi=mu_hi,
            iters=iters, runtime_ms=dt * 1e3))

    csra_icsi = None
    for scheme in swept.schemes:
        t0 = time.perf_counter()
        if scheme == "CSRA-PCSI":
            res = solve_csra(parts["pcsi"], kappa)
            g, u = _metrics(parts["pcsi"], res.alloc)
            record(scheme, g, u, mu_lo=res.mu_lo, mu_hi=res.mu_hi,
                   iters=res.iterations, dt=time.perf_counter() - t0)
        elif scheme == "CSRA-ICSI":
            csra_icsi = solve_csra(parts["icsi"], kappa)
            g, u = _metrics(parts["icsi"], csra_icsi.alloc)
            record(scheme, g, u, mu_lo=csra_icsi.mu_lo, mu_hi=csra_icsi.mu_hi,
                   iters=csra_icsi.iterations, dt=time.perf_counter() - t0)
        elif scheme == "DSRA-ICSI":
            res = solve_dsra(parts["icsi"], kappa, csra_result=csra_icsi)
            g, u = _metrics(parts["icsi"], res.alloc)
            record(scheme, g, u,
                   gap=res.gap_bound / parts["icsi"].n_subchannels,
                   mu_lo=res.csra.mu_lo, mu_hi=res.csra.mu_hi,
                   iters=res.csra.iterations, dt=time.perf_counter() - t0)
        elif scheme == "FP-RUS":
            alloc, _ = fp_rus_baseline(parts["prior"], seed)
            g, u = _metrics(parts["prior"], alloc)
            record(scheme, g, u, dt=time.perf_counter() - t0)
        elif scheme == "SUBGRAD-ICSI":
            trace = subgradient_baseline(parts["icsi"],
                                         swept.subgradient_updates,
                                         swept.subgradient_scale)
            alloc = allocation_at_mu(parts["icsi"], float(trace.mus[-1]))
            g, u = _metrics(parts["icsi"], alloc)
            record(scheme, g, u, iters=swept.subgradient_updates,
                   dt=time.perf_counter() - t0)
    return records


def _run_trial_task(args) -> list[TrialRecord]:
    cfg_dict, sweep_index, trial = args
    return run_trial(ScenarioConfig.from_dict(cfg_dict), sweep_index, trial)


# ---------------------------------------------------------------------------
# scenario runner and outputs
# ---------------------------------------------------------------------------


def run_scenario(cfg: ScenarioConfig, out_dir, threads: int = 1) -> dict:
    """Run the full sweep and write trials.csv, summary.csv, manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    tasks = [(s, t) for s in range(len(cfg.sweep_values))
             for t in range(cfg.n_trials)]
    if threads > 1:
        cfg_dict = cfg.to_dict()
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_run_trial_task,
                                   [(cfg_dict, s, t) for s, t in tasks]))
    else:
        chunks = [run_trial(cfg, s, t) for s, t in tasks]

    records: list[TrialRecord] = []
    for chunk in chunks:
        records.extend(chunk)
    records.sort(key=lambda r: (cfg.sweep_values.index(r.sweep_value),
                                r.trial, cfg.schemes.index(r.scheme)))

    trials_path = out / "trials.csv"
    with trials_path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(TRIALS_COLUMNS)
        for r in records:
            wr.writerow([
                r.sweep_var, _fmt(r.sweep_value), r.trial, r.scheme,
                _fmt(r.goodput_per_subchannel), _fmt(r.utility),
                _fmt(r.gap_bound_per_subchannel), _fmt(r.mu_lo),
                _fmt(r.mu_hi), r.iters, _fmt(r.runtime_ms)])

    summary = summarize(records)
    summary_path = out / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(SUMMARY_COLUMNS)
        for row in summary:
            wr.writerow([row[c] if not isinstance(row[c], float) else _fmt(row[c])
                         for c in SUMMARY_COLUMNS])

    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    manifest = {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": cfg.to_dict(),
        "root_seed": cfg.seed,
        "version": __version__,
        "n_records": len(records),
        "runtime_s": round(time.perf_counter() - t_start, 3),
        "outputs": {"trials": trials_path.name, "summary": summary_path.name},
    }
    with (out / "manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {"records": records, "summary": summary,
            "trials_csv": trials_path, "summary_csv": summary_path,
            "manifest": out / "manifest.json"}


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Per (sweep value, scheme) means and standard errors."""
    keys = []
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        key = (r.sweep_var, r.sweep_value, r.scheme)
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(r)

    rows = []
    for key in keys:
        grp = groups[key]
        good = np.array([r.goodput_per_subchannel for r in grp], dtype=float)
        utils = np.array([r.utility for r in grp], dtype=float)
        gaps = np.array([np.nan if r.gap_bound_per_subchannel is None
                         else r.gap_bound_per_subchannel for r in grp])
        n = good.size
        se = float(np.nanstd(good, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append({
            "sweep_var": key[0], "sweep_value": key[1], "scheme": key[2],
            "n_trials": n,
            "mean_goodput_per_subchannel": float(np.nanmean(good)),
            "se_goodput_per_subchannel": se,
            "mean_utility": float(np.nanmean(utils)),
            "mean_gap_bound_per_subchannel": (
                float(np.nanmean(gaps)) if not np.all(np.isnan(gaps)) else None),
        })
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if np.isnan(v):
            return ""
        return format(v, ".12g")
    return str(v)
