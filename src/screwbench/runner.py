"""Closed-loop run orchestration: simulator and controller stepped together.

One run owns its world state, controller state and RNG, so identical
(scenario, seed) pairs produce identical sample streams and reports. The
RNG is one `random.Random(seed)` stream (MT19937), drawn three times per
step (see `sim`). `closed_loop` is the loop itself: `run_scenario`
folds it into a `RunResult`, and a caller that needs per-step ground truth
reads the same generator. A run's recording is three columns, `t`, `fz`
and `mz`, as `write_log` and `analysis.FtSeries` take them; an `FtSample`
is the value of one step.
"""

from __future__ import annotations

import enum
import math
import random
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import control, sensor, sim

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .scenario import Scenario


class Outcome(str, enum.Enum):
    DONE = "done"
    FAULT = "fault"
    TIMEOUT = "timeout"


# Controller phases that end a run, and the outcome each one gives.
_FINAL = {control.Phase.DONE: Outcome.DONE,
          control.Phase.FAULT: Outcome.FAULT}


@dataclass
class RunResult:
    """Outcome, sensed recording, final states and slip onsets of one run."""

    outcome: Outcome
    t: array  # finite sensed sample times (s), 100 Hz
    fz: array  # their axial force (N)
    mz: array  # their torque (N·m)
    world: sim.WorldState
    controller: control.ControllerState
    slip_times: list  # ground-truth cam-out onset times (s)

    @property
    def samples(self) -> list:
        """The recording as `FtSample` rows, for the benchmark, which reads
        rows; it goes when ROADMAP item 3 replaces the benchmark's tracer."""
        return list(map(sim.FtSample, self.t, self.fz, self.mz))

    @property
    def peak_torque(self) -> float | None:
        """Max sensed torque (N·m), None when no sample was recorded."""
        return max(self.mz, default=None)

    def report(self, scenario: Scenario) -> dict:
        """The run's report. A run whose first sample was not finite
        records none, and reports its peak torque and final force as None."""
        return {
            "outcome": self.outcome.value,
            "slip_events": len(self.slip_times),
            "completion_time": self.world.time,
            "peak_torque": self.peak_torque,
            "final_force": self.fz[-1] if self.fz else None,
            "nu_applied": scenario.controller.margin * scenario.controller.nu,
            "seed": scenario.seed,
            "direction": scenario.direction.value,
            "engaged_depth_final": float(self.world.engaged_depth),
        }


def closed_loop(scenario: Scenario) -> Iterator[tuple]:
    """Step the world, the sensors and the controller once per sample
    period and yield `(world, truth, sensed, state)` after each step.

    `world` and `state` are the run's own `WorldState` and
    `ControllerState`, updated in place by the next step, so read what you
    need from them before advancing the generator. The loop stops after
    the step that enters DONE or FAULT, or after `sensor.periods(duration)`
    steps.
    """
    rng = random.Random(scenario.seed)
    world = sim.initial_world(scenario.screw, scenario.direction,
                              contact_z=scenario.contact_z)
    cfg = scenario.controller
    state = control.ControllerState()
    cmd = control.ToolCommand(z_cmd=0.0, spindle_speed=0.0)
    for _ in range(sensor.periods(scenario.duration)):
        truth = sim.step_world(world, cmd, scenario.screw,
                               scenario.substrate, scenario.sim, rng)
        sensed = sim.read_sensors(truth, scenario.sim, rng)
        cmd = control.update(state, sensed, cfg)
        yield world, truth, sensed, state
        if state.phase in _FINAL:
            return


def run_scenario(scenario: Scenario) -> RunResult:
    t, fz, mz = array("d"), array("d"), array("d")
    slip_times = []
    was_slipping = False
    for world, _, sensed, state in closed_loop(scenario):
        t.append(sensed.t)
        fz.append(sensed.fz)
        mz.append(sensed.mz)
        if world.slipping and not was_slipping:
            slip_times.append(world.time)
        was_slipping = world.slipping
    if not (math.isfinite(sensed.fz) and math.isfinite(sensed.mz)):
        del t[-1], fz[-1], mz[-1]  # the controller faulted on it and stopped
    return RunResult(
        outcome=_FINAL.get(state.phase, Outcome.TIMEOUT), t=t, fz=fz, mz=mz,
        world=world, controller=state, slip_times=slip_times)
