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

Outputs: ``trials.csv`` (one row per sweep value, trial and scheme, one
column per ``TrialRecord`` field), ``summary.csv``
(per sweep value and scheme means and standard errors), and
``manifest.json`` (config hash, seed, version, output inventory).

Trials are independent; with ``threads > 1`` they run in a process pool.
Per-trial seeds derive from (root seed, sweep index, trial index), so
results do not depend on scheduling.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import fp_rus_baseline, subgradient_baseline
from .csra import solve_csra
from .dsra import solve_dsra
from .dual import ProblemInstance, allocation_goodput, allocation_utility
from .snr import (ChannelConfig, SnrDistribution, conditional_snr_dist,
                  draw_channel, mmse_estimate)
from .utility import UTILITY_CODES, McsTable, UtilitySpec

ALL_SCHEMES = ("CSRA-PCSI", "CSRA-ICSI", "DSRA-ICSI", "FP-RUS", "SUBGRAD-ICSI")
SWEEP_VARIABLES = ("pilot_snr_db", "n_users", "snr_db", "weight_w1")

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

    def __post_init__(self):
        if self.variant not in UTILITY_CODES:
            raise ConfigError(f"utility.variant: unknown variant {self.variant!r}")
        if self.scale != 1.0 and self.variant != "capacity_log":
            raise ConfigError(f"utility.scale: {self.variant} takes no scale")
        for name in ("weights", "class_weights"):
            if (getattr(self, name) is not None
                    and self.variant in ("goodput", "capacity_log")):
                raise ConfigError(f"utility.{name}: {self.variant} takes no "
                                  "weights")

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
            raise ConfigError(f"utility.weights: {self.variant} needs weights "
                              "or class_weights")
        if self.variant == "weighted_goodput":
            return UtilitySpec.weighted_goodput(w)
        return UtilitySpec.exp_pricing(w)


def _nested(path: str, default):
    """A flat field that the JSON config keeps at a dotted path."""
    return field(default=default, metadata={"path": path})


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one sweep experiment (desk-scale defaults).

    Also the JSON schema: a key is the field's name or its metadata ``path``.
    """

    channel: ChannelConfig = ChannelConfig(n_subchannels=16, n_users=4)
    mcs_preset: str = _nested("mcs.preset", "qam")
    n_mcs: int = _nested("mcs.n_mcs", 4)
    utility: UtilityConfig = UtilityConfig()
    sweep_variable: str = _nested("sweep.variable", "pilot_snr_db")
    sweep_values: tuple[float, ...] = _nested("sweep.values", (-10.0,))
    n_trials: int = 50
    seed: int = 0
    kappa: float | None = None     # None -> min(0.3/P_con, mu range/16)
    n_atoms: int = 32
    schemes: tuple[str, ...] = ALL_SCHEMES
    subgradient_updates: int = _nested("subgradient.updates", 15)
    subgradient_scale: float = _nested("subgradient.scale", 1.0)

    def __post_init__(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable: unknown variable "
                              f"{self.sweep_variable!r}")
        for path, values in (("sweep.values", self.sweep_values),
                             ("schemes", self.schemes)):
            if not values:
                raise ConfigError(f"{path}: must be non-empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{path}: duplicate values")
        for path, count in (("n_trials", self.n_trials), ("mcs.n_mcs", self.n_mcs),
                            ("n_atoms", self.n_atoms),
                            ("subgradient.updates", self.subgradient_updates)):
            if count < 1:
                raise ConfigError(f"{path}: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        for path, value in (("kappa", self.kappa),
                            ("subgradient.scale", self.subgradient_scale)):
            if value is not None and not value > 0.0:
                raise ConfigError(f"{path}: must be positive")
        if self.mcs_preset not in ("qam", "capacity"):
            raise ConfigError(f"mcs.preset: unknown preset {self.mcs_preset!r}")
        if self.utility.variant == "capacity_log" and self.mcs_preset != "capacity":
            raise ConfigError("utility.variant: capacity_log needs mcs.preset "
                              "'capacity' (rates r <= 1)")
        for s in self.schemes:
            if s not in ALL_SCHEMES:
                raise ConfigError(f"schemes: unknown scheme {s!r}")

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Parse a JSON-shaped config; every error names the field's path.

        A missing key keeps the value of the default ``ScenarioConfig()``.
        Also checks that the utility can be realized at every sweep value.
        """
        cfg = _value(cls, raw, cls(), "")
        for value in cfg.sweep_values:
            swept = _at_path("sweep.values", lambda: cfg.at_sweep_value(value))
            _at_path("utility",
                     lambda: swept.utility.realize(swept.channel.n_users))
        return cfg

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return _unparse(self, _layout(type(self)))

    def at_sweep_value(self, value: float) -> "ScenarioConfig":
        """Scenario with the sweep variable substituted."""
        if self.sweep_variable in ("pilot_snr_db", "snr_db"):
            ch = replace(self.channel, **{self.sweep_variable: float(value)})
            return replace(self, channel=ch)
        if self.sweep_variable == "n_users":
            ch = replace(self.channel, n_users=_scalar(int, value))
            return replace(self, channel=ch)
        # weight_w1
        if not self.utility.class_weights:
            raise ConfigError("sweep.variable: weight_w1 requires "
                              "utility.class_weights")
        cw = (float(value),) + tuple(self.utility.class_weights[1:])
        return replace(self, utility=replace(self.utility, class_weights=cw))


def _at_path(path: str, fn):
    """fn(), with a TypeError, ValueError or OverflowError reported as a
    ConfigError at path."""
    try:
        return fn()
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@functools.cache
def _layout(cls) -> dict:
    """JSON key -> (field name, annotation), or -> the layout of a group."""
    hints = typing.get_type_hints(cls)
    layout = {}
    for f in fields(cls):
        *groups, key = f.metadata.get("path", f.name).split(".")
        node = layout
        for group in groups:
            node = node.setdefault(group, {})
        node[key] = (f.name, hints[f.name])
    return layout


def _kwargs(raw, layout: dict, default, path: str) -> dict:
    """Field values from a JSON object; a missing key keeps default's value.

    A non-object, an unknown key and a value of the wrong type all raise a
    ConfigError naming the path.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'}: must be an object, "
                          f"got {type(raw).__name__}")
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in layout:
            raise ConfigError(f"unknown config key {prefix}{key!r}")
    kwargs = {}
    for key, node in layout.items():
        if isinstance(node, dict):
            kwargs.update(_kwargs(raw.get(key, {}), node, default, prefix + key))
            continue
        name, hint = node
        kwargs[name] = getattr(default, name)
        if key in raw:
            kwargs[name] = _value(hint, raw[key], kwargs[name], prefix + key)
    return kwargs


def _value(hint, raw, default, path: str):
    """One JSON value parsed by its field's annotation."""
    if is_dataclass(hint):
        kwargs = _kwargs(raw, _layout(hint), default, path)
        return _at_path(path, lambda: hint(**kwargs))
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if raw is None else _value(args[0], raw, None, path)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] from a list
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{path}: must be a list, "
                              f"got {type(raw).__name__}")
        return tuple(_value(args[0], v, None, path) for v in raw)
    return _at_path(path, lambda: _scalar(hint, raw))


def _unparse(obj, layout: dict) -> dict:
    """The JSON object of obj; an unset optional list is left out."""
    out = {}
    for key, node in layout.items():
        if isinstance(node, dict):
            out[key] = _unparse(obj, node)
            continue
        name, hint = node
        value = getattr(obj, name)
        if is_dataclass(value):
            value = _unparse(value, _layout(type(value)))
        elif isinstance(value, tuple):
            value = list(value)
        elif value is None and tuple in map(typing.get_origin,
                                            typing.get_args(hint)):
            continue
        out[key] = value
    return out


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _scalar(hint, value):
    """value as an int (3 or 3.0), a finite float or a str; never a bool."""
    want = str if hint is str else (int, float)
    if isinstance(value, bool) or not isinstance(value, want):
        raise TypeError(f"must be {_KINDS[hint]}, got {value!r}")
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    if hint is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return hint(value)


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


TRIALS_COLUMNS = tuple(f.name for f in fields(TrialRecord))


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

    icsi = conditional_snr_dist(est.mean, est.est_error_var, cfg.n_atoms)
    pcsi = SnrDistribution.point_mass(realization.true_snr)
    # channel prior: taps are CN(0, sigma_g^2) so gamma ~ |CN(0, L*sigma_g2)|^2,
    # one law at every (subchannel, user); its equal weights renormalize to
    # the same bits
    prior = conditional_snr_dist(0.0, ch.tap_count * ch.sigma_g2, cfg.n_atoms)
    shape = realization.true_snr.shape + (prior.n_atoms,)
    prior = SnrDistribution(np.broadcast_to(prior.values, shape),
                            np.broadcast_to(prior.weights, shape))

    p_con = ch.p_con
    return {
        "icsi": ProblemInstance(mcs=mcs, utility=util, dists=icsi, p_con=p_con),
        "pcsi": ProblemInstance(mcs=mcs, utility=util, dists=pcsi, p_con=p_con),
        "prior": ProblemInstance(mcs=mcs, utility=util, dists=prior, p_con=p_con),
    }


def run_trial(cfg: ScenarioConfig, sweep_index: int, trial: int) -> list[TrialRecord]:
    """All scheme records for one (sweep value, trial) cell.

    CSRA-ICSI and DSRA-ICSI share one continuous solve of the ICSI instance,
    made by whichever of them comes first.
    """
    value = cfg.sweep_values[sweep_index]
    swept = cfg.at_sweep_value(value)
    seed = trial_seed(cfg.seed, sweep_index, trial)
    parts = build_trial_instances(swept, seed)
    csra_icsi = None
    records = []
    for scheme in swept.schemes:
        t0 = time.perf_counter()
        res, gap, iters = None, None, 0
        if scheme == "CSRA-PCSI":
            inst = parts["pcsi"]
            res = solve_csra(inst, swept.kappa)
            alloc = res.alloc
        elif scheme in ("CSRA-ICSI", "DSRA-ICSI"):
            inst = parts["icsi"]
            if csra_icsi is None:
                csra_icsi = solve_csra(inst, swept.kappa)
            res, alloc = csra_icsi, csra_icsi.alloc
            if scheme == "DSRA-ICSI":
                dsra = solve_dsra(inst, res)
                alloc, gap = dsra.alloc, dsra.gap_bound / inst.n_subchannels
        elif scheme == "FP-RUS":
            inst = parts["prior"]
            alloc = fp_rus_baseline(inst, seed)
        else:  # SUBGRAD-ICSI
            inst = parts["icsi"]
            alloc = subgradient_baseline(inst, swept.subgradient_updates,
                                         swept.subgradient_scale)
            iters = swept.subgradient_updates
        records.append(TrialRecord(
            sweep_var=cfg.sweep_variable, sweep_value=value, trial=trial,
            scheme=scheme,
            goodput_per_subchannel=(allocation_goodput(inst, alloc)
                                    / inst.n_subchannels),
            utility=allocation_utility(inst, alloc),
            gap_bound_per_subchannel=gap,
            mu_lo=None if res is None else res.mu_lo,
            mu_hi=None if res is None else res.mu_hi,
            iters=iters if res is None else res.iterations,
            runtime_ms=(time.perf_counter() - t0) * 1e3))
    return records


# ---------------------------------------------------------------------------
# scenario runner and outputs
# ---------------------------------------------------------------------------


def run_scenario(cfg: ScenarioConfig, out_dir, threads: int = 1) -> dict:
    """Run the full sweep and write trials.csv, summary.csv, manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    sweeps, trials = zip(*product(range(len(cfg.sweep_values)),
                                  range(cfg.n_trials)))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run_trial, repeat(cfg), sweeps, trials))
    else:
        chunks = list(map(run_trial, repeat(cfg), sweeps, trials))

    records = [r for chunk in chunks for r in chunk]

    trials_path = out / "trials.csv"
    _write_csv(trials_path, TRIALS_COLUMNS, map(vars, records))
    summary = summarize(records)
    summary_path = out / "summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summary)

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
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.sweep_var, r.sweep_value, r.scheme), []).append(r)

    rows = []
    for key, grp in groups.items():
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


def _write_csv(path: Path, columns: tuple[str, ...], rows) -> None:
    """A header of the columns, then each row (a dict) in column order."""
    with path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(columns)
        wr.writerows([_fmt(row[c]) for c in columns] for row in rows)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if np.isnan(v):
            return ""
        return format(v, ".12g")
    return str(v)
