"""OFDMA downlink scheduling, MCS selection and power allocation under
imperfect CSI: expected-utility maximization via dual bisection, with both
subchannel-sharing (continuous) and one-combination-per-subchannel
(discrete) solvers, gap certificates, and a Monte-Carlo experiment harness.
"""

__version__ = "0.1.0"

from .snr import (ChannelConfig, ChannelRealization, EstimateState,
                  SnrDistribution, conditional_snr_dist, draw_channel,
                  mmse_estimate)
from .utility import (McsTable, UtilitySpec, expected_utility, goodput,
                      indicator_cost, marginal_value)
from .dual import (AllocationState, MAX_POWER, MIN_POWER, ProblemInstance,
                   WinnerSet, allocation_at_mu, allocation_goodput,
                   allocation_utility, evaluate_mu, lagrangian, mu_bounds,
                   power_root, total_power, v_metric, winner_sets)
from .waterfill import FixedAllocationSolve, solve_fixed_allocation
from .csra import CsraResult, default_kappa, solve_csra
from .dsra import (DsraResult, brute_force_dsra, dsra_gap_bound, solve_dsra)
from .oracle import exhaustive_lagrangian_min, grid_power_oracle
from .baselines import (SubgradientTrace, bisection_mu_trace, fp_rus_baseline,
                        perfect_csi_run, subgradient_baseline)
from .experiments import (ConfigError, ScenarioConfig, TrialRecord,
                          UtilityConfig, run_scenario, run_trial)

__all__ = [
    "__version__",
    "ChannelConfig", "ChannelRealization", "EstimateState", "SnrDistribution",
    "conditional_snr_dist", "draw_channel", "mmse_estimate",
    "McsTable", "UtilitySpec", "expected_utility", "goodput",
    "indicator_cost", "marginal_value",
    "AllocationState", "MAX_POWER", "MIN_POWER", "ProblemInstance",
    "WinnerSet", "allocation_at_mu", "allocation_goodput",
    "allocation_utility", "evaluate_mu", "lagrangian", "mu_bounds",
    "power_root", "total_power", "v_metric", "winner_sets",
    "FixedAllocationSolve", "solve_fixed_allocation",
    "CsraResult", "default_kappa", "solve_csra",
    "DsraResult", "brute_force_dsra", "dsra_gap_bound", "solve_dsra",
    "exhaustive_lagrangian_min", "grid_power_oracle",
    "SubgradientTrace", "bisection_mu_trace", "fp_rus_baseline",
    "perfect_csi_run", "subgradient_baseline",
    "ConfigError", "ScenarioConfig", "TrialRecord", "UtilityConfig",
    "run_scenario", "run_trial",
]
