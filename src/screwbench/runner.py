"""Closed-loop run orchestration: simulator and controller stepped together.

One run owns its world state, controller state and RNG, so identical
(scenario, seed) pairs produce identical sample streams and reports. The
RNG is one `random.Random(seed)` stream (MT19937), drawn three times per
step (see `sim`); numpy loads only when a run is traced.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import control, sim
from .scenario import Direction

if TYPE_CHECKING:
    import numpy as np

    from .scenario import Scenario


class Outcome(str, enum.Enum):
    DONE = "done"
    FAULT = "fault"
    TIMEOUT = "timeout"


@dataclass
class StepTrace:
    """Per-step ground-truth record, kept only when tracing is requested."""

    t: np.ndarray
    phase: list
    slipping: np.ndarray
    force_true: np.ndarray
    tau_req: np.ndarray
    force_target: np.ndarray
    engaged_depth: np.ndarray


@dataclass
class RunResult:
    """Outcome, sensed samples, final states and summary of one run."""

    outcome: Outcome
    samples: list  # sensed FtSample stream, 100 Hz
    world: sim.WorldState
    controller: control.ControllerState
    slip_times: list  # ground-truth cam-out onset times (s)
    completion_time: float  # s; run duration if not completed
    peak_torque: float  # N·m, max sensed torque
    final_force: float  # N, last sensed force
    trace: StepTrace | None = None

    def report(self, scenario: Scenario) -> dict:
        return {
            "outcome": self.outcome.value,
            "slip_events": len(self.slip_times),
            "completion_time": float(self.completion_time),
            "peak_torque": float(self.peak_torque),
            "final_force": float(self.final_force),
            "nu_applied": scenario.controller.margin * scenario.controller.nu,
            "seed": scenario.seed,
            "direction": scenario.direction.value,
            "engaged_depth_final": float(self.world.engaged_depth),
        }


def run_scenario(scenario: Scenario, trace: bool = False) -> RunResult:
    rng = random.Random(scenario.seed)
    world = sim.initial_world(scenario.screw, scenario.direction,
                              contact_z=scenario.contact_z)
    cfg = scenario.controller
    state = control.new_controller_state(cfg)
    cmd = control.ToolCommand(z_cmd=0.0, spindle_speed=0.0)
    n_steps = int(round(scenario.duration / scenario.sim.dt))

    samples = []
    slip_times = []
    was_slipping = False
    completion = scenario.duration
    outcome = Outcome.TIMEOUT
    rows = [] if trace else None

    for _ in range(n_steps):
        truth = sim.step_world(world, cmd, scenario.screw,
                               scenario.substrate, scenario.sim, rng)
        if world.slipping and not was_slipping:
            slip_times.append(world.time)
        was_slipping = world.slipping
        sensed = sim.read_sensors(truth, scenario.sim, rng)
        samples.append(sensed)

        state, cmd = control.update(state, sensed, cfg)
        if rows is not None:
            rows.append((world.time, state.phase.value, world.slipping,
                         truth.fz, sim.required_torque(
                             world, scenario.screw, scenario.substrate,
                             scenario.direction),
                         state.force_target, world.engaged_depth))
        if state.phase in (control.Phase.DONE, control.Phase.FAULT):
            completion = world.time
            outcome = (Outcome.DONE if state.phase == control.Phase.DONE
                       else Outcome.FAULT)
            break

    step_trace = None
    if rows is not None:
        import numpy as np
        cols = list(zip(*rows))
        step_trace = StepTrace(
            t=np.asarray(cols[0]), phase=list(cols[1]),
            slipping=np.asarray(cols[2], dtype=bool),
            force_true=np.asarray(cols[3]), tau_req=np.asarray(cols[4]),
            force_target=np.asarray(cols[5]),
            engaged_depth=np.asarray(cols[6]))

    return RunResult(
        outcome=outcome, samples=samples, world=world, controller=state,
        slip_times=slip_times, completion_time=completion,
        peak_torque=max(s.mz for s in samples) if samples else 0.0,
        final_force=samples[-1].fz if samples else 0.0,
        trace=step_trace)


def run_open_loop(scenario: Scenario, force: float,
                  n_steps: int) -> tuple[list, list, sim.WorldState]:
    """Spin at the scenario speed while holding a constant axial force by
    tracking the contact point. Returns (truth, sensed) streams."""
    rng = random.Random(scenario.seed)
    world = sim.initial_world(scenario.screw, scenario.direction,
                              contact_z=scenario.contact_z)
    sign = 1.0 if scenario.direction == Direction.SCREWING else -1.0
    speed = sign * scenario.controller.spindle_speed
    deflection = force / scenario.sim.k_spring
    truth_samples, sensed_samples = [], []
    for _ in range(n_steps):
        cmd = control.ToolCommand(z_cmd=world.contact_z + deflection,
                                  spindle_speed=speed)
        truth = sim.step_world(world, cmd, scenario.screw,
                               scenario.substrate, scenario.sim, rng)
        truth_samples.append(truth)
        sensed_samples.append(sim.read_sensors(truth, scenario.sim, rng))
    return truth_samples, sensed_samples, world
