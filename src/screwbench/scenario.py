"""Scenario files: the machine-readable description of one run.

A scenario is a YAML mapping with optional sections `screw`, `substrate`,
`sim`, `controller` plus `direction`, `duration`, `contact_z` and `seed`.
Any field left out takes the documented default, so a minimal file only
needs to say what differs. `scenario_from_dict` and `default_scenario` give
the controller the screw's characteristic ratio as its nu gain (the
human-derived value for that head type); a `ControllerConfig()` built in
code keeps its own default (Phillips, 106/m). The top-level `direction` is
stored once, in `ControllerConfig.direction`, so `controller.direction` is
not a file field. The controller module (`control`) loads with the first
scenario built, so `import screwbench.scenario` does not load it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ScenarioError
from .sim import (CONTACT_Z, Direction, ScrewSpec, SimParams, SubstrateSpec,
                  check_numbers)

if TYPE_CHECKING:
    from .control import ControllerConfig


@dataclass
class Scenario:
    screw: ScrewSpec
    substrate: SubstrateSpec
    sim: SimParams
    controller: ControllerConfig  # holds the run's one direction
    seed: int
    duration: float = 40.0  # s
    contact_z: float = CONTACT_Z  # m, where the tool meets the screw head

    def __post_init__(self):
        check_numbers(self)
        if self.seed < 0:
            raise ScenarioError("seed: must be >= 0")
        if self.duration < SimParams.dt:
            raise ScenarioError(
                f"duration: must be at least one sample period "
                f"({SimParams.dt} s)")
        if not math.isfinite(self.duration / SimParams.dt):
            raise ScenarioError(
                f"duration: too large to count in sample periods, "
                f"got {self.duration!r}")

    @property
    def direction(self) -> Direction:
        return self.controller.direction


def _build(cls, section: str | None, data: dict, **given):
    """`cls` from the mapping `data` of a file `section` (None: the top
    level) plus the `given` fields, which a file cannot set. `cls` checks
    the values, and its field errors get the section's prefix."""
    where = section or "scenario"
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    prefix = f"{section}." if section else ""
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names or key in given:
            raise ScenarioError(f"{prefix}{key}: unknown field")
    try:
        return cls(**data, **given)
    except ScenarioError as exc:  # a field's number rule
        raise ScenarioError(f"{prefix}{exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    from .control import ControllerConfig
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a mapping at top level")
    if "seed" not in data:
        raise ScenarioError("seed: required for reproducibility")
    data = dict(data)  # each key is popped where it is built
    try:
        direction = Direction(data.pop("direction",
                                       ControllerConfig.direction))
    except ValueError as exc:
        raise ScenarioError(f"direction: {exc}") from exc

    screw = _build(ScrewSpec, "screw", data.pop("screw", {}))
    substrate = _build(SubstrateSpec, "substrate", data.pop("substrate", {}))
    sim = _build(SimParams, "sim", data.pop("sim", {}))

    ctrl_data = data.pop("controller", {})
    if not isinstance(ctrl_data, dict):
        raise ScenarioError("controller: expected a mapping")
    controller = _build(ControllerConfig, "controller",
                        {"nu": screw.nu_char, **ctrl_data},
                        direction=direction)
    return _build(Scenario, None, data, screw=screw, substrate=substrate,
                  sim=sim, controller=controller)


def load_scenario(path) -> Scenario:
    import yaml
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:  # an integer literal past Python's digit limit is a ValueError
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    return scenario_from_dict(data or {})


def default_scenario(direction=None, seed: int = 0,
                     **overrides) -> Scenario:
    """Convenience builder used by tests and the bundled examples. A
    `direction` of None is left out, as in a file that sets none."""
    given = {} if direction is None else {"direction": direction}
    return scenario_from_dict({**given, "seed": seed, **overrides})
