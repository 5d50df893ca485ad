"""Deterministic workbench for screw fastening/unfastening: physical
simulation with cam-out slippage, a force/torque controller, and the
signal analysis used to extract the force law from recordings."""

from .analysis import (
    ConditionSummary,
    EnvelopeFit,
    FtSeries,
    NuEstimate,
    PeakSet,
    UTestResult,
    estimate_nu,
    fit_envelope,
    local_maxima,
    mann_whitney_u,
    regrasp_frequency,
    summarize_conditions,
)
from .control import (
    CalibrationResult,
    ControllerConfig,
    ControllerState,
    Phase,
    ToolCommand,
    calibrate_force,
    detect_camout,
    detect_terminal,
    new_controller_state,
    pid_force_step,
    target_force,
    update,
)
from .runner import Outcome, RunResult, run_open_loop, run_scenario
from .scenario import Scenario, default_scenario, load_scenario
from .sim import (
    Direction,
    FtSample,
    HeadType,
    ScrewSpec,
    SimParams,
    SubstrateKind,
    SubstrateSpec,
    WorldState,
    initial_world,
    read_sensors,
    required_torque,
    slip_probability,
    step_world,
)

__version__ = "0.1.0"
