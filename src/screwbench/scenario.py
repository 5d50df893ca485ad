"""Run settings: the screw, substrate, model and controller settings of one
run, their field rules, and the scenario files that describe them.

The settings classes are dataclasses built through one shared keyword-only
constructor, which applies the field rule to the fields it is given, in
field order, and then the class's cross-field rules (`__post_init__`).
Their shared `repr` and `==` give what dataclass-generated ones would, so
no class generates methods of its own at import. Each class lists its
sign rules in the class tuples `positive` (> 0) and `non_negative` (>= 0);
a bad value is a `ScenarioError` naming the field (`substrate.tau_cut: must
be >= 0, ...`); in code, an unknown or missing field is a `TypeError`.

A scenario is a mapping with optional sections `screw`, `substrate`,
`sim`, `controller` plus `direction`, `duration`, `contact_z` and `seed`;
`load_scenario` reads it from a file through `logio`. Any field left out
takes the documented default, so a minimal file only needs to say what
differs. `NU_CHAR[head_type]` is the head's slippage
ratio: `sim` takes it as the cam-out threshold, and `scenario_from_dict`
and `default_scenario` give it to the controller as its nu gain (the
human-derived value for that head type); a `ControllerConfig()` built in
code keeps its own default (Phillips, 106/m). The top-level `direction` is
stored once, in `ControllerConfig.direction`, so `controller.direction` is
not a file field.

Every settings class lives here, so building a scenario loads neither the
model (`sim`) nor the controller (`control`); they load with the first run.
"""

import enum
import functools
import math
import reprlib
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

from . import sensor
from .errors import ScenarioError, clip, shown

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


# Slippage-threshold force/torque ratios (1/m), per driver/recess pairing:
# the model's cam-out threshold and the controller's default nu gain.
NU_CHAR = {
    HeadType.PHILLIPS: 106.0,
    HeadType.INTERNAL_HEX: 57.0,
    HeadType.MISMATCHED_DRIVER: 300.0,
}


@functools.cache
def _layout(cls) -> tuple:
    """`cls`'s field defaults in field order (MISSING for a field without
    one), the fields without one, and (name, type, sign) of each field in
    field order."""
    signs = {**dict.fromkeys(cls.non_negative, ">="),
             **dict.fromkeys(cls.positive, ">")}
    defaults = {f.name: f.default for f in fields(cls)}
    required = tuple(name for name, default in defaults.items()
                     if default is MISSING)
    checked = tuple((f.name, f.type, signs.get(f.name)) for f in fields(cls))
    return defaults, required, checked


def _member(kind, name: str, value):
    try:
        return kind(value)
    except ValueError:
        raise ScenarioError(f"{name}: expected one of {', '.join(kind)}, "
                            f"got {shown(value)}") from None


class _Settings:
    """The base of the settings classes: a keyword-only constructor that
    applies the field rule, and a `repr` and `==` over the fields, the same
    as a dataclass's.

    The field rule: a `float` field holds a finite `int` or `float`, stored
    as a float, and an `int` field an `int`, of exactly those types (not a
    bool, a numpy scalar or a `Fraction`), each obeying the sign tables; an
    enum field holds a member, and a settings field (a section of a
    `Scenario`) an instance of its class. Every given field is checked, in
    field order, before the class's `__post_init__` cross-field rules."""

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
        for name, kind, sign in checked:
            if name not in given:
                continue
            value = given[name]
            if issubclass(kind, enum.Enum):
                values[name] = _member(kind, name, value)
                continue
            if issubclass(kind, _Settings):
                if isinstance(value, kind):
                    continue
                raise ScenarioError(
                    f"{name}: expected a {kind.__name__}, got {shown(value)}")
            try:
                ok = (type(value) is int if kind is int else
                      type(value) in (int, float) and math.isfinite(value))
            except OverflowError:  # an int too large to be a float
                ok = False
            if not ok:
                what = "an integer" if kind is int else "a finite number"
                raise ScenarioError(
                    f"{name}: expected {what}, got {shown(value)}")
            if sign and not (value > 0 if sign == ">" else value >= 0):
                raise ScenarioError(
                    f"{name}: must be {sign} 0, got {shown(value)}")
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


@dataclass(init=False, repr=False, eq=False)
class ScrewSpec(_Settings):
    """Head/driver pairing and shank length (M3 x 8 mm defaults). The
    head's slippage ratio is `NU_CHAR[head_type]`, and the pitch is
    `sim.THREAD_PITCH`."""

    head_type: HeadType = HeadType.PHILLIPS
    shank_length: float = 0.008  # m
    positive: ClassVar[tuple] = ("shank_length",)


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
    """Mount spring, sensor noise and peak cam-out rate of the world
    stepper. The cam-out logistic's sharpness and dwell are constants of
    `sim`."""

    k_spring: float = 5000.0  # N/m, compliant mount spring constant
    force_noise_std: float = sensor.FORCE_NOISE_STD  # N
    torque_noise_std: float = sensor.TORQUE_NOISE_STD  # N·m
    p_max: float = 0.1  # peak per-step slip probability
    positive: ClassVar[tuple] = ("k_spring", "p_max")
    non_negative: ClassVar[tuple] = ("force_noise_std", "torque_noise_std")

    def __post_init__(self):
        if self.p_max > 1.0:
            raise ScenarioError("p_max: must be <= 1")


@dataclass(init=False, repr=False, eq=False)
class ControllerConfig(_Settings):
    """Force law and detector settings of a run. The PI loop's gains and
    travel limit, the overload fault and the FREE spin are constants of
    `control`."""

    direction: Direction = Direction.UNSCREWING  # the run's one direction
    nu: float = NU_CHAR[HeadType.PHILLIPS]  # 1/m, human-derived gain
    margin: float = 2.0  # multiplier on nu
    f_min: float = 1.0  # N
    f_max: float = 50.0  # N
    tau_stop: float = 0.25  # N·m, seating threshold
    noise_floor: float = sensor.NOISE_FLOOR  # N·m, torque floor
    base_ramp: float = 3.0  # N/s, force-target slew rate
    k_spring_est: float = SimParams.k_spring  # N/m, feed-forward estimate
    positive: ClassVar[tuple] = ("nu", "margin", "base_ramp", "k_spring_est")
    non_negative: ClassVar[tuple] = ("f_min", "noise_floor")

    def __post_init__(self):
        if self.f_min > self.f_max:
            raise ScenarioError("f_min: must be <= f_max")
        if not math.isfinite(self.margin * self.nu):
            raise ScenarioError(f"margin: margin * nu must be finite, got "
                                f"{self.margin!r} * {self.nu!r}")
        if self.tau_stop <= self.noise_floor:
            raise ScenarioError("tau_stop: must be > noise_floor")


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
        try:
            sensor.periods(self.duration)  # the run counts it in periods
        except OverflowError:
            raise ScenarioError(f"duration: too large to count in sample "
                                f"periods, got {self.duration!r}") from None

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
            raise ScenarioError(f"{prefix}{clip(str(key))}: unknown field")
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
                        {"nu": NU_CHAR[screw.head_type], **ctrl_data},
                        direction=direction)
    return _build(Scenario, None, data, screw=screw, substrate=substrate,
                  sim=sim, controller=controller)


def load_scenario(path) -> Scenario:
    from .logio import read_scenario_file
    return scenario_from_dict(read_scenario_file(path))


def default_scenario(direction=None, seed: int = 0,
                     **overrides) -> Scenario:
    """Convenience builder used by tests and the bundled examples. A
    `direction` of None is left out, as in a file that sets none."""
    given = {} if direction is None else {"direction": direction}
    return scenario_from_dict({**given, "seed": seed, **overrides})
