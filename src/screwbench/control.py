"""Closed-loop screwing/unscrewing controller.

Force law: the axial-force setpoint tracks the running torque times a
human-derived force/torque ratio (with a safety margin), slew-rate limited
so the force builds gradually. A detected cam-out (sharp torque drop)
switches to the faster escalation rate. Position commands come from a PI
force loop with a spring feed-forward term. Pure step function: the caller
owns the loop and the state.

This module holds the phases (`Phase`), the command and state types, the
step functions and `calibrate_force`. The settings they read
(`ControllerConfig`) live in `scenario`.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DegenerateFitError, degenerate_on_warning
from .scenario import Direction, SimParams

if TYPE_CHECKING:
    import numpy as np

    from .scenario import ControllerConfig
    from .sim import FtSample


class Phase(str, enum.Enum):
    APPROACH = "approach"
    ENGAGE = "engage"
    DRIVE = "drive"
    SEATED = "seated"
    FREE = "free"
    DONE = "done"
    FAULT = "fault"


# Declared transition graph; done and fault are absorbing.
ALLOWED_TRANSITIONS = {
    Phase.APPROACH: {Phase.APPROACH, Phase.ENGAGE, Phase.FAULT},
    Phase.ENGAGE: {Phase.ENGAGE, Phase.DRIVE, Phase.FAULT},
    Phase.DRIVE: {Phase.DRIVE, Phase.SEATED, Phase.FREE, Phase.FAULT},
    Phase.SEATED: {Phase.SEATED, Phase.DONE, Phase.FAULT},
    Phase.FREE: {Phase.FREE, Phase.DONE, Phase.FAULT},
    Phase.DONE: {Phase.DONE},
    Phase.FAULT: {Phase.FAULT},
}


@dataclass
class ToolCommand:
    """Carriage position and spindle speed for the next step."""

    z_cmd: float  # m, carriage position
    spindle_speed: float  # rad/s, signed (positive = screwing)


@dataclass
class ControllerState:
    """Phase, force loop and detector state carried between steps."""

    phase: Phase = Phase.APPROACH
    integrator: float = 0.0  # N·s
    torque_window: deque = field(default_factory=deque)
    force_target: float = 0.0  # N
    slip_count: int = 0  # slip-detected steps
    time_in_phase: float = 0.0  # s
    # loop-keeping fields
    z_cmd: float = 0.0
    contact_z_est: float = 0.0
    torque_seen: bool = False  # torque has exceeded the noise floor
    camout_events: int = 0  # rising edges of the slip detector
    camout_prev: bool = False


def new_controller_state(cfg: ControllerConfig) -> ControllerState:
    return ControllerState(torque_window=deque(maxlen=cfg.window))


def target_force(tau_filtered: float, cfg: ControllerConfig) -> float:
    """Force setpoint from torque: clamp(margin * nu * tau, f_min, f_max)."""
    if tau_filtered < 0:
        raise ValueError("tau_filtered must be >= 0")
    return min(cfg.f_max, max(cfg.f_min, cfg.margin * cfg.nu * tau_filtered))


def detect_camout(torque_window, cfg: ControllerConfig) -> bool:
    """Sharp torque drop: latest below theta_slip of the window maximum,
    with the maximum above the noise floor."""
    if len(torque_window) < 2:
        raise ValueError("window length must be >= 2")
    peak = max(torque_window)
    return (peak > cfg.noise_floor
            and torque_window[-1] < cfg.theta_slip * peak)


def camout_flags(mz, cfg: ControllerConfig) -> np.ndarray:
    """`detect_camout` at every sample i >= 1 of a torque record, over the
    trailing window mz[max(0, i - window + 1):i + 1] the controller holds."""
    import numpy as np
    mz = np.asarray(mz, dtype=float)
    padded = np.concatenate([np.full(cfg.window - 1, -np.inf), mz])
    windows = np.lib.stride_tricks.sliding_window_view(padded, cfg.window)
    peak = windows.max(axis=1)
    return (peak > cfg.noise_floor) & (mz < cfg.theta_slip * peak)


def detect_terminal(torque_window, cfg: ControllerConfig,
                    engaged: bool = True) -> Phase | None:
    """Completion detection: the phase to enter (SEATED or FREE), or None.

    Screwing (`cfg.direction`): seated when a sustained rise crosses
    tau_stop (latest at or above the threshold with the window tail strictly
    rising). Unscrewing: free when the whole window sits below the noise
    floor; `engaged` must say the torque has previously exceeded the floor.
    """
    w = torque_window
    if len(w) < 2:
        raise ValueError("window length must be >= 2")
    if cfg.direction == Direction.SCREWING:
        if w[-1] < cfg.tau_stop:
            return None
        tail = min(3, len(w) - 1)  # rising steps required
        if all(w[-i] > w[-i - 1] for i in range(1, tail + 1)):
            return Phase.SEATED
        return None
    if engaged and all(v < cfg.noise_floor for v in w):
        return Phase.FREE
    return None


def pid_force_step(state: ControllerState, f_meas: float, f_target: float,
                   cfg: ControllerConfig) -> float:
    """One PI + feed-forward step over the sample period `SimParams.dt`.

    Returns the carriage offset from the estimated contact position:
    kp*e + ki*int(e) + f_target/k_spring_est, clamped to the travel limit.
    The integrator is held (anti-windup) whenever the unclamped command
    would exceed the travel limit. The name is kept for the benchmark's
    per-layer traces.
    """
    dt = SimParams.dt
    e = f_target - f_meas
    integ = state.integrator + e * dt
    integ = min(cfg.integrator_limit, max(-cfg.integrator_limit, integ))
    u = cfg.kp * e + cfg.ki * integ + f_target / cfg.k_spring_est
    if -cfg.travel_limit <= u <= cfg.travel_limit:
        state.integrator = integ
    else:
        u = min(cfg.travel_limit, max(-cfg.travel_limit, u))
    return u


def _enter(state: ControllerState, phase: Phase) -> None:
    state.phase = phase
    state.time_in_phase = 0.0


def _slew_force_target(state: ControllerState, camout: bool,
                       goal: float, cfg: ControllerConfig) -> None:
    dt = SimParams.dt
    if camout:
        state.slip_count += 1
        if not state.camout_prev:
            state.camout_events += 1
        state.force_target = min(cfg.f_max,
                                 state.force_target + cfg.slip_ramp * dt)
    else:
        step = cfg.base_ramp * dt
        delta = goal - state.force_target
        state.force_target += min(step, max(-step, delta))
    state.force_target = min(cfg.f_max, max(cfg.f_min, state.force_target))
    state.camout_prev = camout


def update(state: ControllerState, sample: FtSample, cfg: ControllerConfig):
    """Full state-machine step over one sample period `SimParams.dt`:
    (state, sample) -> (state, command).

    Mutates and returns `state`. Fault is the error channel; in-band sensor
    values never raise.
    """
    dt = SimParams.dt
    state.time_in_phase += dt
    if state.phase in (Phase.DONE, Phase.FAULT):
        return state, ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)
    if not (math.isfinite(sample.fz) and math.isfinite(sample.mz)):
        _enter(state, Phase.FAULT)
        return state, ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)

    state.torque_window.append(sample.mz)
    if sample.mz > cfg.noise_floor:
        state.torque_seen = True
    if sample.mz > cfg.overload_torque:
        _enter(state, Phase.FAULT)
        return state, ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)

    if state.phase == Phase.APPROACH:
        state.z_cmd += cfg.approach_speed * dt
        if sample.fz > cfg.contact_threshold:
            state.contact_z_est = state.z_cmd - sample.fz / cfg.k_spring_est
            state.force_target = cfg.f_min
            state.integrator = 0.0
            _enter(state, Phase.ENGAGE)
        return state, ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)

    w = state.torque_window
    if state.phase in (Phase.ENGAGE, Phase.DRIVE):
        camout = len(w) >= 2 and detect_camout(w, cfg)
        tau_f = max(w)  # moving-window maximum: the torque envelope
        _slew_force_target(state, camout, target_force(tau_f, cfg), cfg)

        # at most one phase transition per step
        if state.phase == Phase.ENGAGE and tau_f > cfg.noise_floor:
            _enter(state, Phase.DRIVE)
        elif state.phase == Phase.DRIVE:
            if state.slip_count > cfg.slip_limit:
                _enter(state, Phase.FAULT)
            elif len(w) >= 2:
                window_full = len(w) == cfg.window
                term = detect_terminal(w, cfg,
                                       engaged=state.torque_seen and window_full)
                if term is not None:
                    _enter(state, term)
    elif state.phase == Phase.SEATED:
        _enter(state, Phase.DONE)  # one step after seating
    elif state.phase == Phase.FREE:
        # keep spinning briefly so the last threads fully disengage
        if state.time_in_phase >= cfg.free_spin_time:
            _enter(state, Phase.DONE)

    if state.phase in (Phase.DONE, Phase.FAULT):
        return state, ToolCommand(z_cmd=state.z_cmd, spindle_speed=0.0)

    offset = pid_force_step(state, sample.fz, state.force_target, cfg)
    state.z_cmd = state.contact_z_est + offset
    sign = 1.0 if cfg.direction == Direction.SCREWING else -1.0
    spindle = 0.0 if state.phase == Phase.SEATED else sign * cfg.spindle_speed
    return state, ToolCommand(z_cmd=state.z_cmd, spindle_speed=spindle)


@dataclass
class CalibrationResult:
    """Fitted force calibration line and its residual."""

    gain: float  # N per potentiometer unit
    offset: float  # N
    residual_rms: float  # N


def calibrate_force(pairs) -> CalibrationResult:
    """Least-squares line ref_force ~ gain * pot_reading + offset."""
    import numpy as np
    pairs = list(pairs)
    if len(pairs) < 2:
        raise DegenerateFitError("need at least 2 calibration pairs")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    with degenerate_on_warning("calibration fit"):
        if np.ptp(x) == 0.0:
            raise DegenerateFitError("potentiometer readings are constant")
        gain, offset = np.polyfit(x, y, 1)
        resid = y - (gain * x + offset)
        rms = float(np.sqrt(np.mean(resid ** 2)))
    if not all(map(math.isfinite, (gain, offset, rms))):
        raise DegenerateFitError("calibration fit is not finite")
    return CalibrationResult(gain=float(gain), offset=float(offset),
                             residual_rms=rms)
