"""Microgrid tie-line power smoothing with market-coordinated AC loads.

The package simulates a fleet of thermostatically controlled air
conditioners whose aggregate power is steered, through a virtual market
cleared once per control cycle, so that the microgrid tie-line tracks a
low-pass-filtered target.  See the README for the pipeline walkthrough.
"""

__version__ = "0.1.0"

from .baseline import (BaselineModel, CorrectionParams, CorrectionState,
                       TrainingColumns, build_features, correct_baseline,
                       delta_p_adj, fit_baseline_model, predict_baseline)
from .engine import (RunResult, run_scenario, run_training_simulation)
from .market import (BidBatch, ClearingKind, ClearingOutcome, DemandCurve,
                     build_demand_curve, clear_market, estimate_net_load)
from .metrics import MetricsReport, compute_metrics
from .mgcc import (ContractError, CycleRecord, LpfState, compute_aggregate_soa,
                   compute_target_power, lpf_step, run_control_cycle)
from .population import generate_population
from .scenario import PopulationSpec, ScenarioConfig, load_scenario, save_scenario
from .traces import TraceSet, generate_traces, generate_training_traces

__all__ = [name for name in dir() if not name.startswith("_")]
