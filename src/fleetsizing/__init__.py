"""Fleet sizing for station-based vehicle sharing with service guarantees.

Sizes per-station vehicle stock and parking capacity so that the
probability of any unserved request over a horizon stays within a
budget, using a per-station upper bound that is cheap enough to size
against, an exact joint integrator and a Monte Carlo estimator to verify
it, a demand-driven rebalancing planner, and replay of recorded days.
"""

from .exact import (
    JointDistribution,
    StateSpaceTooLargeError,
    joint_transient,
    marginal_distribution,
)
from .ingest import (
    DaySequences,
    Trips,
    estimate_demand,
    extract_day_sequences,
    parse_trips,
)
from .model import (
    DemandModel,
    InvariantViolationError,
    PiecewiseConstantIntensity,
    RebalancingPlan,
    StationFlowProfile,
    SystemDesign,
    aggregate_station_flows,
    load_model,
    load_plan,
    save_model,
    save_plan,
)
from .rebalance import build_plan, compute_imbalance
from .replay import (
    ReplayOutcome,
    baseline_design,
    failure_rate,
    replay_all,
    replay_day,
    sweep,
)
from .simulate import (
    EstimateWithCI,
    estimate_failure_curve,
    failure_times,
)
from .sizing import (
    SizingInfeasibleError,
    SizingRequest,
    SizingResult,
    size_station_capacity,
    size_station_stock,
    size_system,
)
from .station_bound import (
    station_failure_curve,
    station_failure_probability,
    station_transient,
    system_failure_bound_curve,
    system_failure_upper_bound,
)
from .synth import sample_day_sequences, synthetic_imbalanced_model, uniform_demand_model

__version__ = "0.1.0"

__all__ = [
    "DaySequences",
    "DemandModel",
    "EstimateWithCI",
    "InvariantViolationError",
    "JointDistribution",
    "PiecewiseConstantIntensity",
    "RebalancingPlan",
    "ReplayOutcome",
    "SizingInfeasibleError",
    "SizingRequest",
    "SizingResult",
    "StateSpaceTooLargeError",
    "StationFlowProfile",
    "SystemDesign",
    "Trips",
    "aggregate_station_flows",
    "baseline_design",
    "build_plan",
    "compute_imbalance",
    "estimate_demand",
    "estimate_failure_curve",
    "extract_day_sequences",
    "failure_rate",
    "failure_times",
    "joint_transient",
    "load_model",
    "load_plan",
    "marginal_distribution",
    "parse_trips",
    "replay_all",
    "replay_day",
    "sample_day_sequences",
    "save_model",
    "save_plan",
    "size_station_capacity",
    "size_station_stock",
    "size_system",
    "station_failure_curve",
    "station_failure_probability",
    "station_transient",
    "sweep",
    "synthetic_imbalanced_model",
    "system_failure_bound_curve",
    "system_failure_upper_bound",
    "uniform_demand_model",
]
