"""Microgrid tie-line power smoothing with market-coordinated AC loads.

The package simulates a fleet of thermostatically controlled air
conditioners whose aggregate power is steered, through a virtual market
cleared once per control cycle, so that the microgrid tie-line tracks a
low-pass-filtered target.  See the README for the pipeline walkthrough.
"""

__version__ = "0.1.0"

from .agents import (AclAgentConfig, AclAgentState, apply_clearing_price,
                     compute_soa, make_bid, thermostat_step)
from .baseline import (BaselineModel, CorrectionParams, CorrectionState,
                       TrainingSample, build_features, correct_baseline,
                       delta_p_adj, fit_baseline_model, predict_baseline)
from .engine import (RunResult, run_scenario, run_training_simulation)
from .market import (Bid, BidBatch, ClearingKind, ClearingOutcome, DemandCurve,
                     build_demand_curve, clear_market, estimate_net_load)
from .metrics import MetricsReport, compute_metrics, fluctuation_rate
from .mgcc import (ContractError, CycleRecord, LpfState, MgccConfig,
                   compute_aggregate_soa, compute_target_power, lpf_step,
                   run_control_cycle)
from .population import House, generate_population
from .scenario import PopulationSpec, ScenarioConfig, load_scenario, save_scenario
from .thermal import (EtpParameters, HouseGeometry, ThermalState, WeatherSample,
                      derive_etp_params, equilibrium_temperature, etp_step)
from .traces import TraceSet, generate_traces, generate_training_traces

__all__ = [name for name in dir() if not name.startswith("_")]
