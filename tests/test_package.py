"""The top-level package and the README's library use."""

import importlib
import re
from pathlib import Path

import pytest

import screwbench

README = Path(__file__).resolve().parents[1] / "README.md"

# Public name -> the submodule that defines it, as the README's module map
# lists it. The package itself keeps no such table.
HOMES = {
    **dict.fromkeys((
        "CalibrationResult", "ConditionSummary", "EnvelopeFit", "FtSeries",
        "NuEstimate", "PeakSet", "UTestResult", "calibrate_force",
        "camout_flags", "estimate_nu", "fit_envelope", "local_maxima",
        "mann_whitney_u", "regrasp_frequency", "summarize_conditions"),
        "analysis"),
    **dict.fromkeys((
        "ControllerState", "Phase", "ToolCommand", "detect_camout",
        "detect_terminal", "pid_force_step", "target_force", "update"),
        "control"),
    **dict.fromkeys((
        "Outcome", "RunResult", "closed_loop", "run_scenario"), "runner"),
    **dict.fromkeys((
        "ControllerConfig", "Direction", "HeadType", "Scenario", "ScrewSpec",
        "SimParams", "SubstrateKind", "SubstrateSpec", "default_scenario",
        "load_scenario"), "scenario"),
    "camout": "sensor",
    **dict.fromkeys((
        "FtSample", "WorldState", "initial_world", "read_sensors",
        "required_torque", "slip_probability", "step_world"), "sim"),
}


def readme_module_entry(module):
    """The README module map's bullet for `module`, joined into one line."""
    text = README.read_text().split("The modules and their public names:", 1)[1]
    bullet = re.search(rf"^- `{module}`,(.*?)(?=^- |^$)", text,
                       re.DOTALL | re.MULTILINE)
    return " ".join(bullet.group(1).split())


@pytest.mark.parametrize("name", HOMES)
def test_reexport_is_the_submodule_attribute(name):
    """Each public name is defined by the one submodule the README's module
    map names for it, and is not an attribute of the package."""
    home = f"screwbench.{HOMES[name]}"
    obj = getattr(importlib.import_module(home), name)
    assert obj.__module__ == home
    assert f"`{name}`" in readme_module_entry(HOMES[name])
    assert not hasattr(screwbench, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        screwbench.no_such_name
    assert not hasattr(screwbench, "no_such_name")


def test_from_import_of_a_submodule():
    from screwbench import analysis
    assert analysis is importlib.import_module("screwbench.analysis")


def test_readme_library_use_runs_as_written(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("Outcome.")
