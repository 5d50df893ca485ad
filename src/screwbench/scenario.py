"""Scenario files: the machine-readable description of one run.

A scenario is a YAML mapping with optional sections `screw`, `substrate`,
`sim`, `controller` plus `direction`, `duration` and `seed`. Any field left
out takes the documented default, so a minimal file only needs to say what
differs. The controller's nu gain defaults to the screw's characteristic
ratio (the human-derived value for that head type).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

from .control import ControllerConfig
from .errors import ScenarioError
from .sim import Direction, ScrewSpec, SimParams, SubstrateSpec


@dataclass
class Scenario:
    screw: ScrewSpec
    substrate: SubstrateSpec
    sim: SimParams
    controller: ControllerConfig
    direction: Direction
    duration: float  # s
    seed: int
    contact_z: float = 0.005  # m, where the tool meets the screw head

    def __post_init__(self):
        if self.duration <= 0:
            raise ScenarioError("duration: must be > 0")


def _build(cls, section: str, data: dict):
    if not isinstance(data, dict):
        raise ScenarioError(f"{section}: expected a mapping")
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ScenarioError(f"{section}.{key}: unknown field")
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

    ctrl_data = dict(data.get("controller", {}))
    ctrl_data.setdefault("direction", direction.value)
    ctrl_data.setdefault("nu", screw.nu_char)
    controller = _build(ControllerConfig, "controller", ctrl_data)

    try:
        duration = float(data.get("duration", 40.0))
        seed = int(data["seed"])
        contact_z = float(data.get("contact_z", 0.005))
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    return Scenario(screw=screw, substrate=substrate, sim=sim,
                    controller=controller, direction=direction,
                    duration=duration, seed=seed, contact_z=contact_z)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    return scenario_from_dict(data or {})


def default_scenario(direction=Direction.UNSCREWING, seed: int = 0,
                     **overrides) -> Scenario:
    """Convenience builder used by tests and the bundled examples."""
    data = {"direction": Direction(direction).value, "seed": seed}
    data.update(overrides)
    return scenario_from_dict(data)
