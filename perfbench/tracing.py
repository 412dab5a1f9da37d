"""Layer spans and counters, recorded from outside the ofdma_sra package.

Each traced function is replaced, in every module that looks it up, by a
wrapper that times the call.  Spans nest through a stack: on exit a span
adds its duration to its own inclusive total, its duration minus the time
its child spans covered to its self total, and its duration to the child
time of the span below it.  Totals are kept in memory per span name and
read when the traced run ends.  Counters come from the wrapped calls'
arguments and from the result objects the solvers return.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

from ofdma_sra import (baselines, csra, dsra, dual, experiments, kernels,
                       waterfill)

# function name -> span name, wrapped in every module of CALLERS that has it
SPAN_OF = {
    "run_scenario": "experiments.run_scenario",
    "run_trial": "experiments.run_trial",
    "build_trial_instances": "experiments.build",
    "draw_channel": "snr.channel",
    "mmse_estimate": "snr.channel",
    "conditional_snr_dist": "snr.atoms",
    "solve_csra": "csra.solve",
    "solve_dsra": "dsra.solve",
    "dsra_gap_bound": "dsra.gap_bound",
    "mu_bounds": "dual.mu_bounds",
    "evaluate_mu": "dual.evaluate_mu",
    "allocation_utility": "dual.metrics",
    "allocation_goodput": "dual.metrics",
    "solve_fixed_allocation": "waterfill.solve",
    "fp_rus_baseline": "baselines.fp_rus",
}
CALLERS = (experiments, csra, dsra, waterfill, baselines, dual)
KERNELS = ("power_roots", "marginal_values", "expected_utilities")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Per-span-name inclusive time, self time and calls, plus counters."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_time = 0.0
        self._child_time: list[float] = []
        self._counters = {
            "csra.solve": self._count_csra,
            "dsra.solve": self._count_dsra,
            "waterfill.solve": self._count_waterfill,
            "kernels.power_roots": self._count_roots,
            "kernels.marginal_values": self._count_bytes,
            "kernels.expected_utilities": self._count_bytes,
        }

    def install(self, patches: Patches) -> None:
        for module in CALLERS:
            for fname, span in SPAN_OF.items():
                if hasattr(module, fname):
                    patches.wrap(module, fname,
                                 lambda fn, s=span: self._span(s, fn))
        patches.wrap(dual.ProblemInstance, "flat",
                     lambda fn: self._span("dual.flat", fn))
        namespace = kernels.get_kernels()
        for kname in KERNELS:
            patches.wrap(namespace, kname,
                         lambda fn, s=f"kernels.{kname}": self._span(s, fn))

    def _span(self, name: str, fn):
        count = self._counters.get(name)
        stack = self._child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_time += dt
                self.inclusive[name] += dt
                self.self_time[name] += dt - children
                self.calls[name] += 1
            if count is not None:
                count(args, out)
            return out
        return traced

    # -- counters read from arguments and results ------------------------------

    def _count_csra(self, args, res) -> None:
        self.counts["csra.iterations"] += res.iterations
        self.counts["csra.degenerate_blend"] += bool(res.degenerate_blend)
        self.counts["csra.budget_slack"] += bool(res.budget_slack)

    def _count_dsra(self, args, res) -> None:
        self.counts["dsra.exact_from_continuous"] += bool(res.exact_from_continuous)

    def _count_waterfill(self, args, res) -> None:
        self.counts["waterfill.iterations"] += res.iterations

    def _count_roots(self, args, out) -> None:
        self.counts["kernels.power_roots_rows"] += out.size
        self.counts["kernels.power_roots_active"] += int(np.count_nonzero(out > 0.0))
        self._count_bytes(args, out)

    def _count_bytes(self, args, out) -> None:
        """Computed, not measured: each call reads its (rows, atoms) gamma and w."""
        gamma, w = args[0], args[1]
        self.counts["kernels.bytes_computed"] += gamma.nbytes + w.nbytes


# metric -> (unit, source, key); sources: inclusive/self span time per cell,
# calls per cell, counts per cell.
LAYER_METRICS = {
    "waterfill.solve_s": ("s/cell", "inclusive", "waterfill.solve"),
    "waterfill.solve_self_s": ("s/cell", "self", "waterfill.solve"),
    "waterfill.calls": ("1/cell", "calls", "waterfill.solve"),
    "waterfill.iterations": ("1/cell", "counts", "waterfill.iterations"),
    "kernels.power_roots_s": ("s/cell", "inclusive", "kernels.power_roots"),
    "kernels.power_roots_calls": ("1/cell", "calls", "kernels.power_roots"),
    "kernels.power_roots_rows": ("1/cell", "counts", "kernels.power_roots_rows"),
    "kernels.marginal_values_s": ("s/cell", "inclusive", "kernels.marginal_values"),
    "kernels.expected_utilities_s": ("s/cell", "inclusive",
                                     "kernels.expected_utilities"),
    "kernels.bytes_computed": ("B/cell", "counts", "kernels.bytes_computed"),
    "dual.evaluate_mu_s": ("s/cell", "inclusive", "dual.evaluate_mu"),
    "dual.evaluate_mu_self_s": ("s/cell", "self", "dual.evaluate_mu"),
    "dual.evaluate_mu_calls": ("1/cell", "calls", "dual.evaluate_mu"),
    "dual.mu_bounds_s": ("s/cell", "inclusive", "dual.mu_bounds"),
    "dual.mu_bounds_self_s": ("s/cell", "self", "dual.mu_bounds"),
    "dual.metrics_s": ("s/cell", "inclusive", "dual.metrics"),
    "dual.metrics_self_s": ("s/cell", "self", "dual.metrics"),
    "dual.flat_s": ("s/cell", "inclusive", "dual.flat"),
    "csra.solve_s": ("s/cell", "inclusive", "csra.solve"),
    "csra.solve_self_s": ("s/cell", "self", "csra.solve"),
    "csra.iterations": ("1/cell", "counts", "csra.iterations"),
    "csra.degenerate_blend": ("1/cell", "counts", "csra.degenerate_blend"),
    "csra.budget_slack": ("1/cell", "counts", "csra.budget_slack"),
    "dsra.solve_s": ("s/cell", "inclusive", "dsra.solve"),
    "dsra.solve_self_s": ("s/cell", "self", "dsra.solve"),
    "dsra.gap_bound_s": ("s/cell", "inclusive", "dsra.gap_bound"),
    "dsra.gap_bound_self_s": ("s/cell", "self", "dsra.gap_bound"),
    "dsra.exact_from_continuous": ("1/cell", "counts",
                                   "dsra.exact_from_continuous"),
    "snr.channel_s": ("s/cell", "inclusive", "snr.channel"),
    "snr.atoms_s": ("s/cell", "inclusive", "snr.atoms"),
    "snr.atoms_calls": ("1/cell", "calls", "snr.atoms"),
    "baselines.fp_rus_s": ("s/cell", "inclusive", "baselines.fp_rus"),
    "experiments.trial_s": ("s/cell", "inclusive", "experiments.run_trial"),
    "experiments.build_self_s": ("s/cell", "self", "experiments.build"),
    "experiments.output_s": ("s/cell", "self", "experiments.run_scenario"),
}


def layer_metrics(tracer: Tracer, n_cells: int) -> dict:
    """Per-cell means of every LAYER_METRICS entry, plus derived ratios."""
    sources = {"inclusive": tracer.inclusive, "self": tracer.self_time,
               "calls": tracer.calls, "counts": tracer.counts}
    out = {name: {"value": sources[src].get(key, 0) / n_cells, "unit": unit}
           for name, (unit, src, key) in LAYER_METRICS.items()}
    rows = tracer.counts["kernels.power_roots_rows"]
    out["kernels.power_roots_active_ratio"] = {
        "value": tracer.counts["kernels.power_roots_active"] / rows if rows else 0.0,
        "unit": "ratio"}
    return out


def unattributed_share(tracer: Tracer) -> float:
    """Share of traced time that no layer span below run_trial covers."""
    return tracer.self_time["experiments.run_trial"] / tracer.root_time
