"""Fixed-step physical model of a screwdriver/screw/substrate system.

The tool is carried on a spring-compliant mount: commanded carriage position
maps to axial force through the spring constant. Running torque is Coulomb
friction, affine in the engaged thread length and independent of rotation
speed. Cam-out (tip slippage) is a per-step Bernoulli event whose probability
is logistic in the ratio of applied force to the slippage-threshold force.

Randomness comes from the caller's `rng`, which needs only a `random()`
method giving uniforms in [0, 1) (a `random.Random`). Each step draws
exactly three of them, in a fixed order whatever the run's state: one in
`step_world` for the slip event, then two in `read_sensors` for one
Box-Muller pair of sensor noise.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar, NamedTuple

from .errors import ScenarioError

if TYPE_CHECKING:
    from .control import ToolCommand

TWO_PI = 2.0 * math.pi
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


# Numeric field annotations (strings under postponed evaluation).
_NUMBER_KINDS = {"float": float, "float | None": float, "int": int}


@functools.cache
def _number_fields(cls) -> tuple:
    return tuple((f.name, f.type, f.default) for f in fields(cls)
                 if f.type in _NUMBER_KINDS)


def check_numbers(obj) -> None:
    """The number rule of a settings dataclass: a `float` field holds a finite
    real, stored as a float, an `int` field an integer, stored as an int, and
    neither a bool. Fields at their (known-good) class default are skipped."""
    for name, annotation, default in _number_fields(type(obj)):
        value = getattr(obj, name)
        if value is default or value is None and annotation == "float | None":
            continue
        kind = _NUMBER_KINDS[annotation]
        try:
            ok = (isinstance(value, numbers.Integral) if kind is int else
                  isinstance(value, numbers.Real) and math.isfinite(value))
        except OverflowError:  # an int too large to be a float
            ok = False
        if not ok or isinstance(value, bool):
            what = "an integer" if kind is int else "a finite number"
            raise ScenarioError(f"{name}: expected {what}, got {value!r}")
        setattr(obj, name, kind(value))


@dataclass
class ScrewSpec:
    """Fastener geometry and head/driver pairing (M3 x 8 mm defaults)."""

    head_type: HeadType = HeadType.PHILLIPS
    thread_pitch: float = 0.0005  # m per revolution
    shank_length: float = 0.008  # m
    nu_char: float | None = None  # 1/m; default depends on head_type

    def __post_init__(self):
        check_numbers(self)
        self.head_type = HeadType(self.head_type)
        if self.nu_char is None:
            self.nu_char = NU_CHAR_DEFAULTS[self.head_type]
        if self.thread_pitch <= 0:
            raise ValueError("thread_pitch must be > 0")
        if self.shank_length <= 0:
            raise ValueError("shank_length must be > 0")
        if self.nu_char <= 0:
            raise ValueError("nu_char must be > 0")


@dataclass
class SubstrateSpec:
    """Environment the screw threads into.

    k_depth defaults to 0.19 N·m of running torque at full 8 mm engagement.
    tau_run_nut defaults below the 0.003 N·m torque noise amplitude.
    """

    kind: SubstrateKind = SubstrateKind.PLASTIC_HOLE
    tau_cut: float = 0.03  # N·m, thread-cutting torque (screwing only)
    k_depth: float = 0.19 / 0.008  # N·m per m of engaged thread
    tau_run_nut: float = 0.002  # N·m, running torque in a nut
    k_seat: float = 0.05  # N·m/rad, head-seating torsional stiffness

    def __post_init__(self):
        check_numbers(self)
        self.kind = SubstrateKind(self.kind)
        if min(self.tau_cut, self.k_depth, self.tau_run_nut) < 0:
            raise ValueError("torque constants must be >= 0")
        if self.k_seat <= 0:
            raise ValueError("k_seat must be > 0")


@dataclass
class SimParams:
    k_spring: float = 5000.0  # N/m, compliant mount spring constant
    force_noise_std: float = 0.1  # N
    torque_noise_std: float = 0.003  # N·m
    p_max: float = 0.1  # peak per-step slip probability
    slip_sharpness: float = 6.0  # logistic steepness
    slip_dwell: float = 0.1  # s, duration of one cam-out
    dt: ClassVar[float] = 0.01  # s, the fixed 100 Hz sample period

    def __post_init__(self):
        check_numbers(self)
        if self.k_spring <= 0:
            raise ValueError("k_spring must be > 0")
        if not 0.0 < self.p_max <= 1.0:
            raise ValueError("p_max must be in (0, 1]")
        if self.force_noise_std < 0 or self.torque_noise_std < 0:
            raise ValueError("noise stds must be >= 0")


class FtSample(NamedTuple):
    """One axial force/torque measurement. Absolute-value convention."""

    t: float  # s
    fz: float  # N
    mz: float  # N·m


@dataclass
class WorldState:
    screw_angle: float = 0.0  # rad, cumulative rotation
    engaged_depth: float = 0.0  # m of thread in the substrate
    seated: bool = False
    seat_angle: float = 0.0  # rad at first head contact
    contact_z: float = 0.0  # m, position where the spring starts compressing
    slipping: bool = False
    slip_time_left: float = 0.0  # s
    time: float = 0.0  # s


def initial_world(screw: ScrewSpec, direction: Direction,
                  contact_z: float = CONTACT_Z) -> WorldState:
    """Start state: screwing begins one pitch engaged (screw started by
    hand), unscrewing begins at full engagement with the head just free."""
    direction = Direction(direction)
    if direction == Direction.SCREWING:
        depth = min(screw.thread_pitch, screw.shank_length)
    else:
        depth = screw.shank_length
    return WorldState(engaged_depth=depth, contact_z=contact_z)


def required_torque(world: WorldState, screw: ScrewSpec,
                    substrate: SubstrateSpec, direction: Direction) -> float:
    """Torque needed to turn the screw in its current state.

    Pure function of the state: no rotation-speed input exists, so the
    output is speed-invariant by construction.
    """
    if world.engaged_depth <= 0.0 and not world.seated:
        return 0.0
    seat = 0.0
    if world.seated:
        seat = substrate.k_seat * max(0.0, world.screw_angle - world.seat_angle)
    if substrate.kind == SubstrateKind.PLASTIC_HOLE:
        cut = substrate.tau_cut if direction == Direction.SCREWING else 0.0
        return cut + substrate.k_depth * world.engaged_depth + seat
    return substrate.tau_run_nut + seat


def slip_probability(axial_force: float, tau_req: float, screw: ScrewSpec,
                     params: SimParams) -> float:
    """Per-step cam-out probability: logistic in force over the slippage
    threshold nu_char * tau_req, saturating at p_max when unloaded."""
    if axial_force < 0 or tau_req < 0:
        raise ValueError("axial_force and tau_req must be >= 0")
    if tau_req == 0.0:
        return 0.0
    ratio = axial_force / (screw.nu_char * tau_req)
    arg = params.slip_sharpness * (ratio - 1.0)
    if arg > 700.0:  # exp overflow guard
        return 0.0
    return params.p_max / (1.0 + math.exp(arg))


def step_world(world: WorldState, cmd: "ToolCommand", screw: ScrewSpec,
               substrate: SubstrateSpec, params: SimParams, rng) -> FtSample:
    """Advance the world by one dt under a tool command.

    Mutates `world` in place and returns the noise-free truth sample
    (sensor noise is applied separately by read_sensors). Torque is
    transmitted only while the tip is pressed into the head and turning;
    during a slip the transmitted torque is zero and the screw holds still.
    """
    if not (math.isfinite(cmd.z_cmd) and math.isfinite(cmd.spindle_speed)):
        raise ValueError("non-finite tool command")
    u = rng.random()  # drawn every step, used only when a slip can occur
    dt = params.dt

    deflection = max(0.0, cmd.z_cmd - world.contact_z)
    force = params.k_spring * deflection

    direction = (Direction.SCREWING if cmd.spindle_speed >= 0.0
                 else Direction.UNSCREWING)
    speed = abs(cmd.spindle_speed)
    tau_req = required_torque(world, screw, substrate, direction)
    engaged = deflection > 0.0 and speed > 0.0 and (
        world.engaged_depth > 0.0 or world.seated)

    mz = 0.0
    advance = False
    if world.slipping:
        world.slip_time_left -= dt
        if world.slip_time_left <= 0.0:
            world.slipping = False
            world.slip_time_left = 0.0
    elif engaged:
        p = slip_probability(force, tau_req, screw, params)
        if p > 0.0 and u < p:
            # tip skips one recess lobe; screw does not move this dwell
            world.slipping = True
            world.slip_time_left = params.slip_dwell
        else:
            advance = True
            mz = tau_req

    if advance:
        dangle = speed * dt
        if direction == Direction.SCREWING:
            world.screw_angle += dangle
            if not world.seated:
                old = world.engaged_depth
                new = old + screw.thread_pitch * dangle / TWO_PI
                if new >= screw.shank_length:
                    new = screw.shank_length
                    world.seated = True
                    world.seat_angle = world.screw_angle
                world.engaged_depth = new
                world.contact_z += new - old  # head recedes as it drives in
        else:
            world.screw_angle -= dangle
            if world.seated:
                if world.screw_angle <= world.seat_angle:
                    world.seated = False
            else:
                old = world.engaged_depth
                new = max(0.0, old - screw.thread_pitch * dangle / TWO_PI)
                world.engaged_depth = new
                world.contact_z += new - old  # head backs out toward the tool

    world.time += dt
    return FtSample(t=world.time, fz=force, mz=mz)


def read_sensors(truth: FtSample, params: SimParams, rng) -> FtSample:
    """Add zero-mean Gaussian sensor noise, then rectify to absolute value.

    The two normals are one Box-Muller pair from two uniforms, so the draw
    uses only `rng.random()`, whose sequence Python keeps across versions.
    """
    r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))  # 1 - u is in (0, 1]
    a = TWO_PI * rng.random()
    fz = abs(truth.fz + params.force_noise_std * r * math.cos(a))
    mz = abs(truth.mz + params.torque_noise_std * r * math.sin(a))
    return FtSample(t=truth.t, fz=fz, mz=mz)
