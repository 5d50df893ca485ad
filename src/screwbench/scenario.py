"""Scenario files: the machine-readable description of one run.

A scenario is a YAML mapping with optional sections `screw`, `substrate`,
`sim`, `controller` plus `direction`, `duration` and `seed`. Any field left
out takes the documented default, so a minimal file only needs to say what
differs. The controller's nu gain defaults to the screw's characteristic
ratio (the human-derived value for that head type).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .control import ControllerConfig
from .errors import ScenarioError
from .sim import CONTACT_Z, Direction, ScrewSpec, SimParams, SubstrateSpec


@dataclass
class Scenario:
    screw: ScrewSpec
    substrate: SubstrateSpec
    sim: SimParams
    controller: ControllerConfig
    direction: Direction
    duration: float  # s
    seed: int
    contact_z: float = CONTACT_Z  # m, where the tool meets the screw head

    def __post_init__(self):
        if self.duration < SimParams.dt:
            raise ScenarioError(
                f"duration: must be at least one sample period "
                f"({SimParams.dt} s)")
        if not math.isfinite(self.duration / SimParams.dt):
            raise ScenarioError(
                f"duration: too large to count in sample periods, "
                f"got {self.duration!r}")


# Field annotations (strings under postponed evaluation) that take a number;
# "float | None" also takes null.
_NUMERIC = {"float": numbers.Real, "int": numbers.Integral}


def _check_number(name: str, value, kind=numbers.Real) -> None:
    """Reject anything but a finite number of `kind`; a bool is not one."""
    try:
        ok = (isinstance(value, kind) and not isinstance(value, bool)
              and (kind is numbers.Integral or math.isfinite(value)))
    except OverflowError:  # an int too large to be a float
        ok = False
    if not ok:
        what = "an integer" if kind is numbers.Integral else "a finite number"
        raise ScenarioError(f"{name}: expected {what}, got {value!r}")


def _build(cls, section: str, data: dict):
    if not isinstance(data, dict):
        raise ScenarioError(f"{section}: expected a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in fields:
            raise ScenarioError(f"{section}.{key}: unknown field")
        annotation = fields[key].type
        if value is None and annotation.endswith(" | None"):
            continue
        kind = _NUMERIC.get(annotation.removesuffix(" | None"))
        if kind is not None:
            _check_number(f"{section}.{key}", value, kind)
    try:
        return cls(**data)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a mapping at top level")
    known = {"screw", "substrate", "sim", "controller", "direction",
             "duration", "seed", "contact_z"}
    for key in data:
        if key not in known:
            raise ScenarioError(f"{key}: unknown field")
    if "seed" not in data:
        raise ScenarioError("seed: required for reproducibility")
    try:
        direction = Direction(data.get("direction", "unscrewing"))
    except ValueError as exc:
        raise ScenarioError(f"direction: {exc}") from exc

    screw = _build(ScrewSpec, "screw", data.get("screw", {}))
    substrate = _build(SubstrateSpec, "substrate", data.get("substrate", {}))
    sim = _build(SimParams, "sim", data.get("sim", {}))

    ctrl_data = data.get("controller", {})
    if not isinstance(ctrl_data, dict):
        raise ScenarioError("controller: expected a mapping")
    ctrl_data = {"direction": direction.value, "nu": screw.nu_char,
                 **ctrl_data}
    controller = _build(ControllerConfig, "controller", ctrl_data)

    duration = data.get("duration", 40.0)
    _check_number("duration", duration)
    contact_z = data.get("contact_z", CONTACT_Z)
    _check_number("contact_z", contact_z)
    seed = data["seed"]
    _check_number("seed", seed, numbers.Integral)
    if seed < 0:
        raise ScenarioError("seed: must be >= 0")
    return Scenario(screw=screw, substrate=substrate, sim=sim,
                    controller=controller, direction=direction,
                    duration=float(duration), seed=int(seed),
                    contact_z=float(contact_z))


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


def default_scenario(direction=Direction.UNSCREWING, seed: int = 0,
                     **overrides) -> Scenario:
    """Convenience builder used by tests and the bundled examples."""
    data = {"direction": Direction(direction).value, "seed": seed}
    data.update(overrides)
    return scenario_from_dict(data)
