"""Closed-loop screwing/unscrewing controller.

Force law: the axial-force setpoint tracks the running torque times a
human-derived force/torque ratio (with a safety margin), slew-rate limited
so the force builds gradually. A detected cam-out (sharp torque drop)
switches to the faster escalation rate. Position commands come from a PI
force loop with a spring feed-forward term, whose integrator holds while
the command is at the travel limit. Pure step function: the caller owns
the loop and the state.

This module holds the phases (`Phase`), the command and state types and the
step functions. The settings they read (`ControllerConfig`) live in
`scenario`; the sample period and the cam-out rule live in `sensor`.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import sensor
from .scenario import Direction
from .sensor import DT, periods

if TYPE_CHECKING:
    from .scenario import ControllerConfig
    from .sim import FtSample


class Phase(str, enum.Enum):
    APPROACH = "approach"
    ENGAGE = "engage"
    DRIVE = "drive"
    FREE = "free"
    DONE = "done"
    FAULT = "fault"


# Declared transition graph; done and fault are absorbing.
ALLOWED_TRANSITIONS = {
    Phase.APPROACH: {Phase.APPROACH, Phase.ENGAGE, Phase.FAULT},
    Phase.ENGAGE: {Phase.ENGAGE, Phase.DRIVE, Phase.FAULT},
    Phase.DRIVE: {Phase.DRIVE, Phase.DONE, Phase.FREE, Phase.FAULT},
    Phase.FREE: {Phase.FREE, Phase.DRIVE, Phase.DONE, Phase.FAULT},
    Phase.DONE: {Phase.DONE},
    Phase.FAULT: {Phase.FAULT},
}

# A sensed torque above this many noise floors in FREE means the screw is
# still in: the quiet window came from chained cam-outs, not from the
# thread leaving. A true FREE is entered with at most 0.205 mm engaged,
# where the default running torque is at most 0.005 N·m, so 5 floors
# (0.05 N·m) sit 15 noise stds (0.003 N·m) above it. A false FREE is
# caught only while more than 2.1 mm is engaged (0.05 N·m / `k_depth`),
# and in a nut, whose running torque is below the floor, never.
FREE_REENGAGE_FLOORS = 5.0


@dataclass
class ToolCommand:
    """Carriage position and spindle speed for the next step."""

    z_cmd: float  # m, carriage position
    spindle_speed: float  # rad/s, signed (positive = screwing)


@dataclass
class ControllerState:
    """State carried between steps. Its torque window holds the last
    `sensor.CAMOUT_WINDOW` samples, the cam-out rule's window."""

    torque_window: deque = field(
        default_factory=lambda: deque(maxlen=sensor.CAMOUT_WINDOW))
    phase: Phase = Phase.APPROACH
    integrator: float = 0.0  # N·s
    force_target: float = 0.0  # N
    slip_count: int = 0  # slip-detected steps
    free_steps: int = 0  # steps spent in FREE
    # loop-keeping fields
    z_cmd: float = 0.0
    contact_z_est: float = 0.0
    camout_events: int = 0  # rising edges of the slip detector
    camout_prev: bool = False


def target_force(tau_filtered: float, cfg: ControllerConfig) -> float:
    """Force setpoint from torque: clamp(margin * nu * tau, f_min, f_max)."""
    if tau_filtered < 0:
        raise ValueError("tau_filtered must be >= 0")
    return min(cfg.f_max, max(cfg.f_min, cfg.margin * cfg.nu * tau_filtered))


def detect_camout(torque_window, cfg: ControllerConfig) -> bool:
    """Sharp torque drop: latest below `sensor.THETA_SLIP` of the window
    maximum, with the maximum above the noise floor."""
    if len(torque_window) < 2:
        raise ValueError("window length must be >= 2")
    return sensor.camout(max(torque_window), torque_window[-1],
                         cfg.noise_floor)


def detect_terminal(torque_window, cfg: ControllerConfig) -> Phase | None:
    """Completion detection: the phase to enter (DONE or FREE), or None.

    Screwing (`cfg.direction`): done (seated) when a sustained rise crosses
    tau_stop (latest at or above the threshold with the window tail strictly
    rising). Unscrewing: free when the whole window sits below the noise
    floor. The caller asks only in DRIVE, after torque above the floor,
    and returns from FREE to DRIVE on a torque above
    `FREE_REENGAGE_FLOORS` noise floors.
    """
    w = torque_window
    if len(w) < 2:
        raise ValueError("window length must be >= 2")
    if cfg.direction == Direction.SCREWING:
        if w[-1] < cfg.tau_stop:
            return None
        tail = min(3, len(w) - 1)  # rising steps required
        if all(w[-i] > w[-i - 1] for i in range(1, tail + 1)):
            return Phase.DONE
        return None
    if all(v < cfg.noise_floor for v in w):
        return Phase.FREE
    return None


def pid_force_step(state: ControllerState, f_meas: float, f_target: float,
                   cfg: ControllerConfig) -> float:
    """One PI + feed-forward step over the sample period `sensor.DT`.

    Returns the carriage offset from the estimated contact position:
    kp*e + ki*int(e) + f_target/k_spring_est, clamped to the travel limit.
    Anti-windup is conditional integration: the integrator holds whenever
    the unclamped command would leave the travel limit. With ki > 0 and
    targets in [0, f_max] it therefore stays within
    [-(travel_limit + f_max/k_spring_est)/ki, travel_limit/ki]. A NaN
    command, from terms that overflow near the float limit, is returned
    as NaN with the integrator held, and `update` then enters FAULT. The
    name is kept for the benchmark's per-layer traces.
    """
    e = f_target - f_meas
    integ = state.integrator + e * DT
    u = cfg.kp * e + cfg.ki * integ + f_target / cfg.k_spring_est
    if -cfg.travel_limit <= u <= cfg.travel_limit:
        state.integrator = integ
    elif not math.isnan(u):
        u = math.copysign(cfg.travel_limit, u)
    return u


def _slew_force_target(state: ControllerState, camout: bool,
                       goal: float, cfg: ControllerConfig) -> None:
    if camout:
        state.slip_count += 1
        if not state.camout_prev:
            state.camout_events += 1
        state.force_target += cfg.slip_ramp * DT
    else:
        step = cfg.base_ramp * DT
        delta = goal - state.force_target
        state.force_target += min(step, max(-step, delta))
    state.force_target = min(cfg.f_max, max(cfg.f_min, state.force_target))
    state.camout_prev = camout


def update(state: ControllerState, sample: FtSample,
           cfg: ControllerConfig) -> ToolCommand:
    """Full state-machine step over one sample period `sensor.DT`.

    Updates `state` in place and returns the command for the next step.
    Fault is the error channel: a non-finite sample, a torque above
    `overload_torque` or a command that is not finite enters FAULT, and
    in-band sensor values never raise.
    """
    if state.phase in (Phase.DONE, Phase.FAULT):
        return ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)
    if not (math.isfinite(sample.fz) and math.isfinite(sample.mz)
            and sample.mz <= cfg.overload_torque):
        state.phase = Phase.FAULT
        return ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)

    state.torque_window.append(sample.mz)
    if state.phase == Phase.APPROACH:
        z_cmd = state.z_cmd + cfg.approach_speed * DT
        if sample.fz > cfg.contact_threshold:
            state.contact_z_est = z_cmd - sample.fz / cfg.k_spring_est
            state.force_target = cfg.f_min
            state.phase = Phase.ENGAGE
        return _command(state, z_cmd, 0.0)

    w = state.torque_window
    if state.phase in (Phase.ENGAGE, Phase.DRIVE):
        # ENGAGE follows an APPROACH step's sample and the window holds
        # `sensor.CAMOUT_WINDOW` (30) samples, so w holds at least two here
        camout = detect_camout(w, cfg)
        tau_f = max(w)  # moving-window maximum: the torque envelope
        _slew_force_target(state, camout, target_force(tau_f, cfg), cfg)

        # at most one phase transition per step
        if state.phase == Phase.ENGAGE and tau_f > cfg.noise_floor:
            state.phase = Phase.DRIVE
        elif state.phase == Phase.DRIVE:
            if state.slip_count > cfg.slip_limit:
                state.phase = Phase.FAULT
            else:
                # DRIVE began above the floor, so a window below it is full
                term = detect_terminal(w, cfg)
                if term is not None:
                    state.phase = term
    elif state.phase == Phase.FREE:
        if sample.mz > FREE_REENGAGE_FLOORS * cfg.noise_floor:
            # back to DRIVE, where the window rule must free it again
            state.phase = Phase.DRIVE
            state.free_steps = 0
        else:
            # keep spinning briefly so the last threads fully disengage
            state.free_steps += 1
            if state.free_steps >= periods(cfg.free_spin_time):
                state.phase = Phase.DONE

    if state.phase in (Phase.DONE, Phase.FAULT):
        return ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)

    offset = pid_force_step(state, sample.fz, state.force_target, cfg)
    sign = 1.0 if cfg.direction == Direction.SCREWING else -1.0
    return _command(state, state.contact_z_est + offset,
                    sign * cfg.spindle_speed)


def _command(state: ControllerState, z_cmd: float,
             spindle: float) -> ToolCommand:
    """Move the carriage to `z_cmd`, or, when settings far out of range
    overflow it, enter FAULT holding the last finite position."""
    if not math.isfinite(z_cmd):
        state.phase = Phase.FAULT
        return ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)
    state.z_cmd = z_cmd
    return ToolCommand(z_cmd=z_cmd, spindle_speed=spindle)
