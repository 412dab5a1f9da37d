"""OFDMA downlink scheduling, MCS selection and power allocation under
imperfect CSI: expected-utility maximization via dual bisection, with both
subchannel-sharing (continuous) and one-combination-per-subchannel
(discrete) solvers, gap certificates, and a Monte-Carlo experiment harness.
"""

__version__ = "0.1.0"

from .snr import (ChannelConfig, ChannelRealization, EstimateState,
                  SnrDistribution, conditional_snr_dist, draw_channel,
                  mmse_estimate)
from .utility import McsTable, UtilitySpec
from .dual import (AllocationState, ProblemInstance, allocation_goodput,
                   allocation_utility, evaluate_mu, mu_bounds)
from .waterfill import FixedAllocationSolve, solve_fixed_allocation
from .csra import CsraResult, default_kappa, solve_csra
from .dsra import DsraResult, dsra_gap_bound, solve_dsra
from .baselines import fp_rus_baseline, subgradient_baseline
from .experiments import (ConfigError, ScenarioConfig, TrialRecord,
                          UtilityConfig, run_scenario, run_trial)

__all__ = [
    "__version__",
    "ChannelConfig", "ChannelRealization", "EstimateState", "SnrDistribution",
    "conditional_snr_dist", "draw_channel", "mmse_estimate",
    "McsTable", "UtilitySpec",
    "AllocationState", "ProblemInstance", "allocation_goodput",
    "allocation_utility", "evaluate_mu", "mu_bounds",
    "FixedAllocationSolve", "solve_fixed_allocation",
    "CsraResult", "default_kappa", "solve_csra",
    "DsraResult", "dsra_gap_bound", "solve_dsra",
    "fp_rus_baseline", "subgradient_baseline",
    "ConfigError", "ScenarioConfig", "TrialRecord", "UtilityConfig",
    "run_scenario", "run_trial",
]
