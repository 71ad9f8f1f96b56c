"""Interdependent water / power / road resilience simulation toolkit.

The package couples three desk-scale network solvers (pressure-driven
hydraulics, minimum-shedding DC dispatch, user-equilibrium traffic
assignment) with hazard sampling, crew-based repair scheduling, and
resilience metrics, so that disaster-and-restoration experiments run
end to end on a laptop.
"""

from .hazard import (
    ComponentFailure,
    DisasterScenario,
    HazardError,
    HazardEvent,
    exposure_probability,
    failure_probability,
    sample_scenario,
)
from .hydraulics import HydraulicError, HydraulicParams, WaterSimulator, pda_demand, solve_hydraulics
from .metrics import (
    AnovaResult,
    MetricsError,
    NetworkSeries,
    PairedResult,
    benjamini_hochberg,
    consumer_eoh,
    curve_eoh,
    ecs_curve,
    paired_comparison,
    pcs_curve,
    repeated_measures_anova,
    system_eoh,
    weighted_eoh,
)
from .network import (
    Component,
    Dependency,
    IntegratedNetwork,
    NetworkError,
    NetworkValidationError,
    load_network,
    save_network,
    validate_network,
)
from .powerflow import PowerFlowError, PowerState, motor_operational, solve_power
from .recovery import (
    Crew,
    PlanningContext,
    RecoveryError,
    build_planning_context,
    default_crews,
    mpc_sequence,
    rank_components,
    repair_duration,
)
from .simulation import (
    EventRow,
    EventTable,
    SimulationError,
    SimulationResult,
    build_event_table,
    make_weighted_eoh_evaluator,
    run_scenario,
    simulate,
)
from .testbed import build_simple_testbed
from .traffic import TrafficAssignmentError, TrafficParams, TrafficState, assign_traffic

__version__ = "0.1.0"

__all__ = [
    "AnovaResult",
    "Component",
    "ComponentFailure",
    "Crew",
    "Dependency",
    "DisasterScenario",
    "EventRow",
    "EventTable",
    "HazardError",
    "HazardEvent",
    "HydraulicError",
    "HydraulicParams",
    "IntegratedNetwork",
    "MetricsError",
    "NetworkError",
    "NetworkSeries",
    "NetworkValidationError",
    "PairedResult",
    "PlanningContext",
    "PowerFlowError",
    "PowerState",
    "RecoveryError",
    "SimulationError",
    "SimulationResult",
    "TrafficAssignmentError",
    "TrafficParams",
    "TrafficState",
    "WaterSimulator",
    "assign_traffic",
    "benjamini_hochberg",
    "build_event_table",
    "build_planning_context",
    "build_simple_testbed",
    "consumer_eoh",
    "curve_eoh",
    "default_crews",
    "ecs_curve",
    "exposure_probability",
    "failure_probability",
    "load_network",
    "make_weighted_eoh_evaluator",
    "motor_operational",
    "mpc_sequence",
    "paired_comparison",
    "pcs_curve",
    "pda_demand",
    "rank_components",
    "repair_duration",
    "repeated_measures_anova",
    "run_scenario",
    "sample_scenario",
    "save_network",
    "simulate",
    "solve_hydraulics",
    "solve_power",
    "system_eoh",
    "validate_network",
    "weighted_eoh",
]
