"""Deterministic workbench for screw fastening/unfastening: physical
simulation with cam-out slippage, a force/torque controller, and the
signal analysis used to extract the force law from recordings.

The names below are re-exported lazily (PEP 562): each loads its submodule
on first access, so `import screwbench.runner` loads neither YAML nor the
analysis pipeline.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "ConditionSummary", "EnvelopeFit", "FtSeries", "NuEstimate",
        "PeakSet", "UTestResult", "estimate_nu", "fit_envelope",
        "local_maxima", "mann_whitney_u", "regrasp_frequency",
        "summarize_conditions"), "analysis"),
    **dict.fromkeys((
        "CalibrationResult", "ControllerState", "Phase", "ToolCommand",
        "calibrate_force", "detect_camout", "detect_terminal",
        "new_controller_state", "pid_force_step", "target_force", "update"),
        "control"),
    **dict.fromkeys((
        "Outcome", "RunResult", "run_open_loop", "run_scenario"), "runner"),
    **dict.fromkeys((
        "ControllerConfig", "Direction", "HeadType", "Scenario", "ScrewSpec",
        "SimParams", "SubstrateKind", "SubstrateSpec", "default_scenario",
        "load_scenario"), "scenario"),
    **dict.fromkeys((
        "FtSample", "WorldState", "initial_world", "read_sensors",
        "required_torque", "slip_probability", "step_world"), "sim"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
