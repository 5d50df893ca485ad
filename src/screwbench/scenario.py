"""Run settings: the screw, substrate, model and controller settings of one
run, their field rules, and the scenario files that describe them.

The settings classes are dataclasses built through one shared keyword-only
constructor, which applies the field rule to the fields it is given, in
field order, and then the class's cross-field rules (`__post_init__`).
Their shared `repr` and `==` give what dataclass-generated ones would, so
no class generates methods of its own at import. Each class lists its
sign rules in the class tuples `positive` (> 0) and `non_negative` (>= 0);
a bad setting, in a file or in code, is a `ScenarioError` naming the field
(`substrate.tau_cut: must be >= 0, ...`).

A scenario is a YAML mapping with optional sections `screw`, `substrate`,
`sim`, `controller` plus `direction`, `duration`, `contact_z` and `seed`.
Any field left out takes the documented default, so a minimal file only
needs to say what differs. `scenario_from_dict` and `default_scenario` give
the controller the screw's characteristic ratio as its nu gain (the
human-derived value for that head type); a `ControllerConfig()` built in
code keeps its own default (Phillips, 106/m). The top-level `direction` is
stored once, in `ControllerConfig.direction`, so `controller.direction` is
not a file field.

Every settings class lives here, so building a scenario loads neither the
model (`sim`) nor the controller (`control`); they load with the first run.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import reprlib
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

from . import sensor
from .errors import ScenarioError

CONTACT_Z = 0.005  # m, default carriage position at first head contact


class HeadType(str, enum.Enum):
    PHILLIPS = "phillips"
    INTERNAL_HEX = "internal_hex"
    MISMATCHED_DRIVER = "mismatched_driver"


class SubstrateKind(str, enum.Enum):
    PLASTIC_HOLE = "plastic_hole"
    NUT = "nut"


class Direction(str, enum.Enum):
    SCREWING = "screwing"
    UNSCREWING = "unscrewing"


# Slippage-threshold force/torque ratios (1/m), per driver/recess pairing.
NU_CHAR_DEFAULTS = {
    HeadType.PHILLIPS: 106.0,
    HeadType.INTERNAL_HEX: 57.0,
    HeadType.MISMATCHED_DRIVER: 300.0,
}


@functools.cache
def _layout(cls) -> tuple:
    """`cls`'s field defaults in field order (MISSING for a field without
    one), the fields without one, and (name, kind, default, sign) of each
    number or enum field in field order."""
    signs = {**dict.fromkeys(cls.non_negative, ">="),
             **dict.fromkeys(cls.positive, ">")}
    defaults = {f.name: f.default for f in fields(cls)}
    required = tuple(name for name, default in defaults.items()
                     if default is MISSING)
    checked = tuple((f.name, _KINDS[f.type], f.default, signs.get(f.name))
                    for f in fields(cls) if f.type in _KINDS)
    return defaults, required, checked


def _member(kind, name: str, value):
    try:
        return kind(value)
    except ValueError:
        raise ScenarioError(f"{name}: expected one of {', '.join(kind)}, "
                            f"got {value!r}") from None


class _Settings:
    """The base of the settings classes: a keyword-only constructor that
    applies the field rule, and a `repr` and `==` over the fields, the same
    as a dataclass's.

    The field rule: a `float` field holds a finite real, stored as a float,
    an `int` field an integer, stored as an int, and neither a bool, and
    obeys the class's sign tables; an enum field holds a member, and a
    settings field (a section of a `Scenario`) an instance of its class.
    Only the given fields are checked, in field order, and one given as
    its (known-good) class default object is skipped. The class's
    `__post_init__` then applies its cross-field rules."""

    positive: ClassVar[tuple] = ()  # fields that must be > 0
    non_negative: ClassVar[tuple] = ()  # fields that must be >= 0

    def __init__(self, **given):
        cls = type(self)
        defaults, required, checked = _layout(cls)
        values = {**defaults, **given}
        if len(values) > len(defaults):
            name = next(name for name in given if name not in defaults)
            raise TypeError(f"{cls.__name__}() got an unknown field {name!r}")
        for name in required:
            if name not in given:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        for name, kind, default, sign in checked:
            if name not in given:
                continue
            value = given[name]
            if value is default:
                continue
            if issubclass(kind, enum.Enum):
                values[name] = _member(kind, name, value)
                continue
            if issubclass(kind, _Settings):
                if isinstance(value, kind):
                    continue
                raise ScenarioError(
                    f"{name}: expected a {kind.__name__}, got {value!r}")
            try:
                ok = (isinstance(value, numbers.Integral) if kind is int else
                      isinstance(value, numbers.Real) and math.isfinite(value))
            except OverflowError:  # an int too large to be a float
                ok = False
            if not ok or isinstance(value, bool):
                what = "an integer" if kind is int else "a finite number"
                raise ScenarioError(f"{name}: expected {what}, got {value!r}")
            if sign and not (value > 0 if sign == ">" else value >= 0):
                raise ScenarioError(f"{name}: must be {sign} 0, got {value!r}")
            values[name] = kind(value)
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """The class's cross-field rules; none here."""

    @reprlib.recursive_repr()
    def __repr__(self):
        items = ", ".join(f"{name}={value!r}"
                          for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented


def _check_periods(obj, name: str) -> None:
    """A duration that a run counts in whole sample periods: the field's
    count, `sensor.periods`, must be finite."""
    value = getattr(obj, name)
    try:
        sensor.periods(value)
    except OverflowError:
        raise ScenarioError(f"{name}: too large to count in sample "
                            f"periods, got {value!r}") from None


@dataclass(init=False, repr=False, eq=False)
class ScrewSpec(_Settings):
    """Fastener geometry and head/driver pairing (M3 x 8 mm defaults)."""

    head_type: HeadType = HeadType.PHILLIPS
    thread_pitch: float = 0.0005  # m per revolution
    shank_length: float = 0.008  # m
    nu_char: float | None = None  # 1/m; default depends on head_type
    positive: ClassVar[tuple] = ("thread_pitch", "shank_length", "nu_char")

    def __post_init__(self):
        if self.nu_char is None:
            self.nu_char = NU_CHAR_DEFAULTS[self.head_type]


@dataclass(init=False, repr=False, eq=False)
class SubstrateSpec(_Settings):
    """Environment the screw threads into.

    k_depth defaults to 0.19 N·m of running torque at full 8 mm engagement.
    tau_run_nut defaults below the 0.003 N·m torque noise amplitude.
    """

    kind: SubstrateKind = SubstrateKind.PLASTIC_HOLE
    tau_cut: float = 0.03  # N·m, thread-cutting torque (screwing only)
    k_depth: float = 0.19 / 0.008  # N·m per m of engaged thread
    tau_run_nut: float = 0.002  # N·m, running torque in a nut
    k_seat: float = 0.05  # N·m/rad, head-seating torsional stiffness
    positive: ClassVar[tuple] = ("k_seat",)
    non_negative: ClassVar[tuple] = ("tau_cut", "k_depth", "tau_run_nut")


@dataclass(init=False, repr=False, eq=False)
class SimParams(_Settings):
    """Mount spring, sensor noise and cam-out model of the world stepper."""

    k_spring: float = 5000.0  # N/m, compliant mount spring constant
    force_noise_std: float = sensor.FORCE_NOISE_STD  # N
    torque_noise_std: float = sensor.TORQUE_NOISE_STD  # N·m
    p_max: float = 0.1  # peak per-step slip probability
    slip_sharpness: float = 6.0  # logistic steepness
    # s, how long a cam-out reports `slipping`: `sensor.periods(slip_dwell)`
    # steps from the onset step; the screw also holds on the step that ends
    # it (`sim`)
    slip_dwell: float = 0.1
    positive: ClassVar[tuple] = ("k_spring", "p_max", "slip_sharpness")
    non_negative: ClassVar[tuple] = ("force_noise_std", "torque_noise_std",
                                     "slip_dwell")

    def __post_init__(self):
        _check_periods(self, "slip_dwell")
        if self.p_max > 1.0:
            raise ScenarioError("p_max: must be <= 1")


@dataclass(init=False, repr=False, eq=False)
class ControllerConfig(_Settings):
    """Force law, PI loop, detector and phase-machine settings of a run."""

    direction: Direction = Direction.UNSCREWING  # the run's one direction
    nu: float = NU_CHAR_DEFAULTS[HeadType.PHILLIPS]  # 1/m, human-derived gain
    margin: float = 2.0  # multiplier on nu
    f_min: float = 1.0  # N
    f_max: float = 50.0  # N
    kp: float = 1.0e-4  # m/N
    ki: float = 5.0e-3  # m/(N·s)
    tau_stop: float = 0.25  # N·m, seating threshold
    noise_floor: float = sensor.NOISE_FLOOR  # N·m, torque floor
    base_ramp: float = 3.0  # N/s, force-target slew rate
    slip_ramp: float = 8.0  # N/s, slew rate while slippage is detected
    k_spring_est: float = SimParams.k_spring  # N/m, feed-forward estimate
    spindle_speed: float = math.tau  # rad/s magnitude while driving
    approach_speed: float = 0.005  # m/s carriage advance before contact
    contact_threshold: float = 0.5  # N, force that marks contact
    travel_limit: float = 0.02  # m, carriage offset limit around contact
    overload_torque: float = 0.4  # N·m, fault threshold
    slip_limit: int = 2000  # fault after this many slip-detected steps
    # s of extra spin to fully withdraw the screw: FREE lasts
    # `sensor.periods(free_spin_time)` steps, the last entering DONE
    free_spin_time: float = 2.0
    positive: ClassVar[tuple] = (
        "nu", "margin", "base_ramp", "slip_ramp", "k_spring_est",
        "spindle_speed", "approach_speed", "contact_threshold", "travel_limit",
        "overload_torque", "slip_limit")
    non_negative: ClassVar[tuple] = ("f_min", "kp", "ki", "noise_floor",
                                     "free_spin_time")

    def __post_init__(self):
        _check_periods(self, "free_spin_time")
        if self.f_min > self.f_max:
            raise ScenarioError("f_min: must be <= f_max")
        if not math.isfinite(self.margin * self.nu):
            raise ScenarioError(f"margin: margin * nu must be finite, got "
                                f"{self.margin!r} * {self.nu!r}")
        if self.tau_stop <= self.noise_floor:
            raise ScenarioError("tau_stop: must be > noise_floor")


# Checked field annotations (strings under postponed evaluation).
_KINDS = {"float": float, "float | None": float, "int": int, **{
    kind.__name__: kind for kind in (
        HeadType, SubstrateKind, Direction,
        ScrewSpec, SubstrateSpec, SimParams, ControllerConfig)}}


@dataclass(init=False, repr=False, eq=False)
class Scenario(_Settings):
    """One run: its settings, seed, duration and contact position."""

    screw: ScrewSpec
    substrate: SubstrateSpec
    sim: SimParams
    controller: ControllerConfig  # holds the run's one direction
    seed: int
    duration: float = 40.0  # s
    contact_z: float = CONTACT_Z  # m, where the tool meets the screw head
    non_negative: ClassVar[tuple] = ("seed",)

    def __post_init__(self):
        if self.duration < sensor.DT:
            raise ScenarioError(
                f"duration: must be at least one sample period "
                f"({sensor.DT} s)")
        _check_periods(self, "duration")

    @property
    def direction(self) -> Direction:
        return self.controller.direction


def _build(cls, section: str | None, data: dict, **given):
    """`cls` from the mapping `data` of a file `section` (None: the top
    level) plus the `given` fields, which a file cannot set. `cls` checks
    the values, and its field errors get the section's prefix."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{section or 'scenario'}: expected a mapping")
    prefix = f"{section}." if section else ""
    names = _layout(cls)[0]
    for key in data:
        if key not in names or key in given:
            raise ScenarioError(f"{prefix}{key}: unknown field")
    try:
        return cls(**data, **given)
    except ScenarioError as exc:  # names the field
        raise ScenarioError(f"{prefix}{exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a mapping at top level")
    if "seed" not in data:
        raise ScenarioError("seed: required for reproducibility")
    data = dict(data)  # each key is popped where it is built
    direction = _member(Direction, "direction",
                        data.pop("direction", ControllerConfig.direction))

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
    from .logio import read_text
    # an integer literal past Python's digit limit is a ValueError, and
    # nesting deeper than the parser's recursion limit a RecursionError
    try:
        data = yaml.safe_load(read_text(path))
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    # an empty file is an empty mapping, so it still asks for the seed
    return scenario_from_dict({} if data is None else data)


def default_scenario(direction=None, seed: int = 0,
                     **overrides) -> Scenario:
    """Convenience builder used by tests and the bundled examples. A
    `direction` of None is left out, as in a file that sets none."""
    given = {} if direction is None else {"direction": direction}
    return scenario_from_dict({**given, "seed": seed, **overrides})
