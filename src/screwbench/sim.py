"""Fixed-step physical model of a screwdriver/screw/substrate system: the
world state (`WorldState`), the sample type (`FtSample`) and the step
functions. The settings they read (`ScrewSpec`, `SubstrateSpec`,
`SimParams`) live in `scenario`.

The tool is carried on a spring-compliant mount: commanded carriage position
maps to axial force through the spring constant. Running torque is Coulomb
friction, affine in the engaged thread length and independent of rotation
speed. Cam-out (tip slippage) is a per-step Bernoulli event whose probability
is logistic in the ratio of applied force to the slippage-threshold force.

Every timer counts whole sample periods. A cam-out holds the screw still on
its onset step and on the n = max(1, round(slip_dwell / DT)) steps after it.
`slipping`, `slip_steps_left > 0`, reads True on the onset step and the next
n - 1, and False on the last held step, so back-to-back cam-outs give
separate rising edges. At the default 0.1 s the screw holds for 11 steps, 10
of them `slipping`. The clock is the int `step`, and `time` is
`step / SAMPLE_HZ`, so the k-th sample's `t` is the float nearest `k / 100` s.

Randomness comes from the caller's `rng`, which needs only a `random()`
method giving uniforms in [0, 1) (a `random.Random`). Each step draws
exactly three of them, in a fixed order whatever the run's state: one in
`step_world` for the slip event, then two in `read_sensors` for one
Box-Muller pair of sensor noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .scenario import CONTACT_Z, Direction, SubstrateKind
from .sensor import DT, SAMPLE_HZ

if TYPE_CHECKING:
    from .control import ToolCommand
    from .scenario import ScrewSpec, SimParams, SubstrateSpec


class FtSample(NamedTuple):
    """One axial force/torque measurement. Absolute-value convention."""

    t: float  # s
    fz: float  # N
    mz: float  # N·m


@dataclass
class WorldState:
    """The screw's rotation, engagement and cam-out state, and the clock."""

    screw_angle: float = 0.0  # rad, cumulative rotation
    engaged_depth: float = 0.0  # m of thread in the substrate
    seated: bool = False
    seat_angle: float = 0.0  # rad at first head contact
    contact_z: float = 0.0  # m, position where the spring starts compressing
    slip_steps_left: int = 0  # dwell steps left in the cam-out
    step: int = 0  # sample periods elapsed

    @property
    def slipping(self) -> bool:
        """In a cam-out with dwell steps left to hold."""
        return self.slip_steps_left > 0

    @property
    def time(self) -> float:
        """Seconds elapsed: the float nearest `step / SAMPLE_HZ`."""
        return self.step / SAMPLE_HZ


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


def required_torque(world: WorldState, substrate: SubstrateSpec,
                    direction: Direction) -> float:
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
    threshold = screw.nu_char * tau_req
    if threshold == 0.0:  # no torque, or a product below the float range
        return 0.0
    ratio = axial_force / threshold
    arg = params.slip_sharpness * (ratio - 1.0)
    if arg > 700.0:  # exp overflow guard
        return 0.0
    return params.p_max / (1.0 + math.exp(arg))


def step_world(world: WorldState, cmd: "ToolCommand", screw: ScrewSpec,
               substrate: SubstrateSpec, params: SimParams, rng) -> FtSample:
    """Advance the world by one sample period (`sensor.DT`) under a command.

    Mutates `world` in place and returns the noise-free truth sample
    (sensor noise is applied separately by read_sensors). Torque is
    transmitted only while the tip is pressed into the head and turning;
    during a slip the transmitted torque is zero and the screw holds still.
    The spindle's sign sets the rotation: a positive speed turns the screw
    in, a negative one out, through the same thread.
    """
    if not (math.isfinite(cmd.z_cmd) and math.isfinite(cmd.spindle_speed)):
        raise ValueError("non-finite tool command")
    u = rng.random()  # drawn every step, used only when a slip can occur

    deflection = max(0.0, cmd.z_cmd - world.contact_z)
    force = params.k_spring * deflection

    direction = (Direction.SCREWING if cmd.spindle_speed >= 0.0
                 else Direction.UNSCREWING)
    tau_req = required_torque(world, substrate, direction)
    engaged = deflection > 0.0 and cmd.spindle_speed != 0.0 and (
        world.engaged_depth > 0.0 or world.seated)

    mz = 0.0
    if world.slipping:
        world.slip_steps_left -= 1
    elif engaged:
        p = slip_probability(force, tau_req, screw, params)
        if u < p:  # never at p == 0, as u >= 0
            # tip skips one recess lobe; screw does not move this dwell
            world.slip_steps_left = max(1, round(params.slip_dwell / DT))
        else:
            mz = tau_req
            turn = cmd.spindle_speed * DT  # rad, signed like the spindle
            world.screw_angle += turn
            if world.seated:
                if turn < 0.0 and world.screw_angle <= world.seat_angle:
                    world.seated = False
            else:
                old = world.engaged_depth
                new = max(0.0, old + screw.thread_pitch * turn / math.tau)
                if turn > 0.0 and new >= screw.shank_length:
                    new = screw.shank_length
                    world.seated = True
                    world.seat_angle = world.screw_angle
                world.engaged_depth = new
                world.contact_z += new - old  # the head moves with the thread

    world.step += 1
    return FtSample(t=world.time, fz=force, mz=mz)


def read_sensors(truth: FtSample, params: SimParams, rng) -> FtSample:
    """Add zero-mean Gaussian sensor noise, then rectify to absolute value.

    The two normals are one Box-Muller pair from two uniforms, so the draw
    uses only `rng.random()`, whose sequence Python keeps across versions.
    """
    r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))  # 1 - u is in (0, 1]
    a = math.tau * rng.random()
    fz = abs(truth.fz + params.force_noise_std * r * math.cos(a))
    mz = abs(truth.mz + params.torque_noise_std * r * math.sin(a))
    return FtSample(t=truth.t, fz=fz, mz=mz)
