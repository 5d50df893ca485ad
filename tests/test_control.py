import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwbench import analysis, control, runner, scenario, sensor, sim
from screwbench.control import Phase


def cfg_with(**kw):
    return scenario.ControllerConfig(**kw)


def set_constants(monkeypatch, **constants):
    """Replace `control` constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(control, name, value)


class TestTargetForce:
    def test_zero_torque_floors_at_f_min(self):
        cfg = cfg_with()
        assert control.target_force(0.0, cfg) == cfg.f_min

    def test_linear_law(self):
        cfg = cfg_with(nu=106.0, margin=1.0, f_min=0.0, f_max=1e9)
        assert control.target_force(0.1, cfg) == pytest.approx(10.6)

    def test_clamped_at_f_max(self):
        cfg = cfg_with(nu=106.0, margin=2.0, f_max=30.0)
        assert control.target_force(0.19, cfg) == 30.0

    def test_overflowing_gain_rejected(self):
        """margin * nu = inf would give inf * 0 = nan at zero torque."""
        with pytest.raises(ValueError, match=r"margin \* nu must be finite"):
            cfg_with(margin=1e200, nu=1e200)
        cfg = cfg_with(margin=1e150, nu=1e150)
        assert control.target_force(0.0, cfg) == cfg.f_min
        assert control.target_force(0.1, cfg) == cfg.f_max

    @given(tau=st.floats(0, 1), c=st.floats(0.1, 10))
    def test_pre_clamp_scaling(self, tau, c):
        cfg = cfg_with(f_min=0.0, f_max=1e9)
        assert (control.target_force(c * tau, cfg)
                == pytest.approx(c * control.target_force(tau, cfg)))


class TestDetectCamout:
    def test_sharp_drop(self):
        cfg = cfg_with(noise_floor=0.01)
        assert control.detect_camout([0.15, 0.16, 0.15, 0.02], cfg)

    def test_below_noise_floor(self):
        cfg = cfg_with(noise_floor=0.01)
        assert not control.detect_camout([0.005, 0.005, 0.005], cfg)

    def test_gentle_decline(self):
        cfg = cfg_with()
        assert not control.detect_camout([0.15, 0.148, 0.146], cfg)


# Torque values drawn from a few levels as well as at random, so zeros and
# ties with the window maximum are common.
_levels = st.one_of(st.sampled_from([0.0, 0.005, 0.01, 0.02, 0.2]),
                    st.floats(0.0, 0.4))


class TestCamoutFlags:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_levels, min_size=1, max_size=120),
           floor=st.sampled_from([0.0, 0.01, 0.05]))
    def test_matches_detect_camout_on_trailing_windows(self, values, floor):
        cfg = cfg_with(noise_floor=floor)
        mz = np.asarray(values)
        flags = analysis.camout_flags(mz, noise_floor=floor)
        window = sensor.CAMOUT_WINDOW
        assert len(flags) == len(mz)
        for i in range(1, len(mz)):
            expected = control.detect_camout(mz[max(0, i - window + 1):i + 1],
                                             cfg)
            assert flags[i] == expected

    def test_detector_defaults_have_one_home(self):
        """The controller's settings and the log pipeline's flags take the
        noise floor from `sensor`; the window and the drop fraction are
        the rule's own constants, which no setting overrides."""
        params = inspect.signature(analysis.camout_flags).parameters
        assert [name for name, p in params.items()
                if p.default is not p.empty] == ["noise_floor"]
        assert (params["noise_floor"].default == cfg_with().noise_floor
                == sensor.NOISE_FLOOR)
        names = {f.name for f in dataclasses.fields(scenario.ControllerConfig)}
        assert not names & {"window", "theta_slip"}


def test_state_is_built_with_a_bounded_window():
    """A state's torque window is the cam-out rule's window, never the
    whole run."""
    state = control.ControllerState()
    assert state.torque_window.maxlen == sensor.CAMOUT_WINDOW
    assert control.ControllerState().torque_window is not state.torque_window


class TestDetectTerminal:
    def test_seating_rise(self):
        cfg = cfg_with(direction="screwing", tau_stop=0.2)
        term = control.detect_terminal([0.10, 0.16, 0.24], cfg)
        assert term == Phase.DONE

    def test_unscrewed_free(self):
        cfg = cfg_with(direction="unscrewing", noise_floor=0.01)
        term = control.detect_terminal([0.004, 0.003, 0.005], cfg)
        assert term == Phase.FREE

    def test_slip_spike_is_not_seating(self):
        cfg = cfg_with(direction="screwing", tau_stop=0.2)
        term = control.detect_terminal([0.10, 0.25, 0.05], cfg)
        assert term is None

    def test_no_false_seating_during_induced_high_torque_slips(self):
        # closed-loop screwing with aggressive slips near seating torque
        # (86 onsets, 10 of them in the last 3 s before the seat at
        # 25.66 s): ground-truth seated flag must agree with the detector's
        # verdict
        sc = scenario.default_scenario(
            "screwing", seed=11, sim={"p_max": 0.5},
            controller={"margin": 1.0})
        for world, _, _, state in runner.closed_loop(sc):
            pass
        # the loop ends on the step that enters DONE, so this run seated
        assert state.phase == Phase.DONE
        assert world.seated
        assert world.engaged_depth == sc.screw.shank_length

    # Plastic-hole unscrewing runs whose chained cam-outs emptied the torque
    # window, so that FREE was entered with 5.6-8.0 mm still engaged and the
    # run returned to DRIVE: every such phillips and internal_hex run in
    # seeds 0..99, and the first four mismatched_driver ones.
    CHAINED_CAMOUT_RUNS = [
        *(("phillips", s) for s in (2, 28, 54, 66, 71, 77, 91, 96, 97)),
        *(("internal_hex", s) for s in (28, 71, 77, 96, 97)),
        *(("mismatched_driver", s) for s in (1, 2, 4, 9)),
    ]
    # The runs the same rule picked while the float dwell timer held a
    # cam-out for 12 steps, not 11: without the return to DRIVE each ended
    # `done` with the screw in. They no longer chain, and stay as
    # regression runs.
    EARLIER_CHAINED_CAMOUT_RUNS = [
        *(("phillips", s) for s in (27, 36, 45, 55, 64, 89, 95)),
        *(("internal_hex", s) for s in (36, 45, 89, 95)),
        *(("mismatched_driver", s) for s in (22, 23, 24, 25)),
    ]

    @pytest.mark.parametrize(
        "head, seed", CHAINED_CAMOUT_RUNS + EARLIER_CHAINED_CAMOUT_RUNS)
    def test_no_false_free_after_chained_camouts(self, head, seed):
        sc = scenario.default_scenario("unscrewing", seed=seed,
                                       screw={"head_type": head})
        result = runner.run_scenario(sc)
        assert result.outcome == runner.Outcome.DONE
        assert result.world.engaged_depth == 0

    @pytest.mark.parametrize("head, seed", CHAINED_CAMOUT_RUNS[::5])
    def test_done_from_free_only_when_disengaged(self, head, seed):
        """Ground truth at the step that enters DONE from FREE: the screw
        is out. A false FREE returns to DRIVE before that."""
        sc = scenario.default_scenario("unscrewing", seed=seed,
                                       screw={"head_type": head})
        prev, returned = Phase.APPROACH, False
        for world, _, _, state in runner.closed_loop(sc):
            returned |= (prev, state.phase) == (Phase.FREE, Phase.DRIVE)
            if (prev, state.phase) == (Phase.FREE, Phase.DONE):
                assert world.engaged_depth == 0
            prev = state.phase
        assert (prev, returned) == (Phase.DONE, True)


class TestPidForceStep:
    def test_steady_state_is_feedforward_only(self):
        cfg = cfg_with()
        state = control.ControllerState()
        u = control.pid_force_step(state, 10.0, 10.0, cfg)
        assert u == pytest.approx(10.0 / cfg.k_spring_est)

    def test_step_response_settles_within_one_second(self):
        # plant: pure spring, force = k * commanded offset
        cfg = cfg_with()
        state = control.ControllerState()
        k = 5000.0
        f = 0.0
        history = []
        for _ in range(100):
            u = control.pid_force_step(state, f, 10.0, cfg)
            f = k * u
            history.append(f)
        assert history[-1] == pytest.approx(10.0, rel=0.05)

    def test_settles_with_spring_mismatch(self):
        cfg = cfg_with(k_spring_est=4000.0)
        state = control.ControllerState()
        f = 0.0
        for _ in range(100):
            u = control.pid_force_step(state, f, 10.0, cfg)
            f = 5000.0 * u
        assert f == pytest.approx(10.0, rel=0.05)

    def test_saturated_command_holds_integrator(self):
        """Anti-windup is conditional integration: a target the travel
        limit cannot reach leaves the integrator where it was."""
        cfg = cfg_with()
        state = control.ControllerState()
        for _ in range(10_000):
            u = control.pid_force_step(state, 0.0, 1e6, cfg)
            assert u == control.TRAVEL_LIMIT
            assert state.integrator == 0.0

    def test_overflowed_command_is_nan(self, monkeypatch):
        """With KI = 0 the integrator is unbounded; once it overflows,
        0 * inf makes the command NaN, which is returned as it is rather
        than clamped to a travel limit."""
        set_constants(monkeypatch, KI=0.0, KP=0.0, TRAVEL_LIMIT=1e308)
        cfg = cfg_with(f_min=1e308, f_max=1e308)
        state = control.ControllerState()
        for _ in range(179):
            assert control.pid_force_step(state, 0.0, 1e308, cfg) == (
                1e308 / cfg.k_spring_est)
        held = state.integrator
        assert np.isnan(control.pid_force_step(state, 0.0, 1e308, cfg))
        assert state.integrator == held

    def test_infinite_command_clamps_and_holds(self, monkeypatch):
        set_constants(monkeypatch, KP=1e308, TRAVEL_LIMIT=1e308)
        cfg = cfg_with(f_min=1e308, f_max=1e308)
        state = control.ControllerState()
        assert control.pid_force_step(state, 0.0, 1e308, cfg) == (
            control.TRAVEL_LIMIT)
        assert state.integrator == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 50.0), st.floats(1.0, 50.0),
                              st.integers(1, 100)), max_size=20))
    def test_integrator_stays_within_travel_bounds(self, stream):
        """Forces in [f_min, f_max], each pair held for some steps, keep
        the integrator where an unclamped command fits inside the travel
        limit."""
        cfg = cfg_with()
        state = control.ControllerState()
        lo = -(control.TRAVEL_LIMIT
               + cfg.f_max / cfg.k_spring_est) / control.KI
        hi = control.TRAVEL_LIMIT / control.KI
        for f_meas, f_target, steps in stream:
            for _ in range(steps):
                control.pid_force_step(state, f_meas, f_target, cfg)
                assert lo <= state.integrator <= hi


def drive_state(cfg):
    """Controller state already in the drive phase with a warm window: it
    holds one sample at the tests' drive torque, 0.15 N·m, as a run that
    reached DRIVE holds at least one."""
    state = control.ControllerState()
    state.phase = Phase.DRIVE
    state.force_target = cfg.f_min
    state.torque_window.append(0.15)
    return state


class TestUpdate:
    def test_base_ramp_rate_without_slip(self):
        cfg = cfg_with(direction="unscrewing", f_max=1e6, nu=1e6)
        state = drive_state(cfg)
        dt = 0.01
        targets = []
        for i in range(10):
            sample = sim.FtSample(t=i * dt, fz=5.0, mz=0.15)
            control.update(state, sample, cfg)
            targets.append(state.force_target)
        rates = np.diff(targets) / dt
        assert np.allclose(rates, cfg.base_ramp)

    def test_camout_escalates_at_slip_ramp(self):
        cfg = cfg_with(direction="unscrewing")
        state = drive_state(cfg)
        dt = 0.01
        for i in range(5):
            control.update(state, sim.FtSample(i * dt, 20.0, 0.15), cfg)
        before = state.force_target
        control.update(
            state, sim.FtSample(0.05, 20.0, 0.002), cfg)  # sharp drop
        assert state.force_target > before
        assert (state.force_target - before) == pytest.approx(
            control.SLIP_RAMP * dt)
        assert state.slip_count == 1

    def test_force_target_clamped_after_engage(self):
        cfg = cfg_with(direction="unscrewing")
        state = drive_state(cfg)
        rng = np.random.default_rng(0)
        for i in range(500):
            sample = sim.FtSample(i * 0.01, rng.uniform(0, 100),
                                  rng.uniform(0, 0.3))
            control.update(state, sample, cfg)
            if state.phase in (Phase.DONE, Phase.FAULT):
                break
            assert cfg.f_min <= state.force_target <= cfg.f_max

    def test_overload_torque_faults(self):
        cfg = cfg_with(direction="screwing")
        state = drive_state(cfg)
        control.update(
            state, sim.FtSample(0.0, 10.0, control.OVERLOAD_TORQUE + 0.01),
            cfg)
        assert state.phase == Phase.FAULT

    @pytest.mark.parametrize("fz, mz", [(float("nan"), 0.15),
                                        (20.0, float("inf"))],
                             ids=["nan_force", "inf_torque"])
    def test_non_finite_sample_faults_and_holds(self, fz, mz):
        cfg = cfg_with(direction="screwing")
        state = drive_state(cfg)
        for i in range(5):
            cmd = control.update(
                state, sim.FtSample(i * 0.01, 20.0, 0.15), cfg)
        z_last = cmd.z_cmd
        cmd = control.update(state, sim.FtSample(0.05, fz, mz), cfg)
        assert state.phase == Phase.FAULT
        assert cmd == control.ToolCommand(z_cmd=z_last, spindle_speed=0.0)

    def test_nan_command_faults_and_holds(self, monkeypatch):
        set_constants(monkeypatch, KI=0.0, KP=0.0, TRAVEL_LIMIT=1e308)
        cfg = cfg_with(direction="screwing", f_min=1e308, f_max=1e308)
        state = drive_state(cfg)
        state.integrator = 1.79e308
        state.z_cmd = 0.004
        cmd = control.update(state, sim.FtSample(0.0, 0.0, 0.15), cfg)
        assert state.phase == Phase.FAULT
        assert cmd == control.ToolCommand(z_cmd=0.004, spindle_speed=0.0)

    def test_slip_limit_faults(self):
        cfg = cfg_with(direction="screwing")
        state = drive_state(cfg)
        for i in range(5):
            control.update(state, sim.FtSample(i * 0.01, 20.0, 0.15), cfg)
        state.slip_count = control.SLIP_LIMIT - 1
        control.update(
            state, sim.FtSample(0.05, 20.0, 0.002), cfg)  # reaches the limit
        assert (state.phase, state.slip_count) == (
            Phase.DRIVE, control.SLIP_LIMIT)
        cmd = control.update(
            state, sim.FtSample(0.06, 20.0, 0.002), cfg)  # passes it
        assert (state.phase, state.slip_count) == (
            Phase.FAULT, control.SLIP_LIMIT + 1)
        assert cmd.spindle_speed == 0.0

    def test_free_requires_prior_engagement(self):
        """Contact with no torque never counts as unscrewed: the whole
        window below the noise floor ends DRIVE only, and DRIVE needs
        torque above the floor."""
        cfg = cfg_with(direction="unscrewing", noise_floor=0.01)
        state = control.ControllerState()
        for i in range(sensor.CAMOUT_WINDOW + 300):
            control.update(state, sim.FtSample(i * 0.01, 5.0, 0.0), cfg)
            assert state.phase in (Phase.APPROACH, Phase.ENGAGE)

    def test_torque_in_free_returns_to_drive(self):
        """In FREE, a sensed torque above `FREE_REENGAGE_FLOORS` noise
        floors means the screw is still in: back to DRIVE, with the FREE
        timer reset. A torque at that level keeps FREE."""
        cfg = cfg_with(direction="unscrewing", noise_floor=0.01)
        state = drive_state(cfg)
        state.phase = Phase.FREE
        limit = control.FREE_REENGAGE_FLOORS * cfg.noise_floor
        control.update(state, sim.FtSample(0.0, 5.0, limit), cfg)
        assert (state.phase, state.free_steps) == (Phase.FREE, 1)
        cmd = control.update(state, sim.FtSample(0.01, 5.0, 0.06), cfg)
        assert (state.phase, state.free_steps) == (Phase.DRIVE, 0)
        assert cmd.spindle_speed == -control.SPINDLE_SPEED

    def test_free_lasts_whole_steps(self, monkeypatch):
        """FREE spins for `round(FREE_SPIN_TIME / DT)` updates, the last of
        which enters DONE: 10 at 0.1 s and 200 at the default 2.0 s."""
        assert control.FREE_SPIN_TIME == 2.0
        for spin, steps in ((0.1, 10), (2.0, 200)):
            set_constants(monkeypatch, FREE_SPIN_TIME=spin)
            cfg = cfg_with(direction="unscrewing")
            state = drive_state(cfg)
            state.phase = Phase.FREE
            phases = []
            for i in range(steps + 5):
                control.update(state, sim.FtSample(i * 0.01, 0.0, 0.0), cfg)
                phases.append(state.phase)
            assert steps == round(spin / sensor.DT)
            assert phases == [Phase.FREE] * (steps - 1) + [Phase.DONE] * 6

    def test_seating_stops_the_spindle_and_ends_the_run(self):
        """The step whose window rises across `tau_stop` enters DONE, and
        its command stops the spindle where the carriage is: no further
        step runs with the spindle stopped before the run ends."""
        cfg = cfg_with(direction="screwing", tau_stop=0.2)
        state = drive_state(cfg)  # window [0.15]
        for i, mz in enumerate((0.16, 0.18)):
            cmd = control.update(state, sim.FtSample(i * 0.01, 20.0, mz),
                                 cfg)
        assert state.phase == Phase.DRIVE
        assert cmd.spindle_speed == control.SPINDLE_SPEED
        z_last = cmd.z_cmd
        cmd = control.update(state, sim.FtSample(0.02, 20.0, 0.24), cfg)
        assert state.phase == Phase.DONE
        assert cmd == control.ToolCommand(z_cmd=z_last, spindle_speed=0.0)
        cmd = control.update(state, sim.FtSample(0.03, 20.0, 0.05), cfg)
        assert state.phase == Phase.DONE
        assert cmd == control.ToolCommand(z_cmd=z_last, spindle_speed=0.0)

    def test_done_and_fault_absorbing(self):
        cfg = cfg_with()
        for terminal in (Phase.DONE, Phase.FAULT):
            state = control.ControllerState()
            state.phase = terminal
            for i in range(20):
                cmd = control.update(
                    state, sim.FtSample(i * 0.01, 50.0, 0.3), cfg)
                assert state.phase == terminal
                assert cmd.spindle_speed == 0.0

    def test_full_unscrewing_run_disengages_screw(self):
        sc = scenario.default_scenario("unscrewing", seed=42)
        result = runner.run_scenario(sc)
        assert result.outcome == runner.Outcome.DONE
        assert result.world.engaged_depth == 0.0

    def test_full_screwing_run_seats_screw(self):
        sc = scenario.default_scenario("screwing", seed=42)
        result = runner.run_scenario(sc)
        assert result.outcome == runner.Outcome.DONE
        assert result.world.seated
        assert result.peak_torque < control.OVERLOAD_TORQUE

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 80), st.floats(0, 0.39)),
                    min_size=5, max_size=60))
    def test_phase_graph_soundness(self, stream):
        cfg = cfg_with(direction="unscrewing")
        state = control.ControllerState()
        prev = state.phase
        for i, (fz, mz) in enumerate(stream):
            control.update(state, sim.FtSample(i * 0.01, fz, mz), cfg)
            assert state.phase in control.ALLOWED_TRANSITIONS[prev]
            prev = state.phase


@pytest.mark.parametrize("fields, constants, outcome, steps", [
    ({}, {}, runner.Outcome.DONE, 1674),
    ({}, {"OVERLOAD_TORQUE": 0.05}, runner.Outcome.FAULT, 137),
    ({"duration": 1.0}, {}, runner.Outcome.TIMEOUT, 100),
    # 100.5 periods step 100 times, so the run ends at t = 1.0
    ({"duration": 1.005}, {}, runner.Outcome.TIMEOUT, 100),
], ids=["done", "fault", "timeout", "timeout_part_period"])
def test_run_scenario_folds_the_closed_loop(monkeypatch, fields, constants,
                                            outcome, steps):
    """`run_scenario` agrees with one pass of `closed_loop`: its samples,
    slip onsets, final states and report come from the yielded steps.
    `constants` replaces `control` constants for the run."""
    set_constants(monkeypatch, **constants)
    sc = scenario.default_scenario("screwing", seed=3, **fields)
    sensed, times, slipping = [], [], []
    for world, _, sample, state in runner.closed_loop(sc):
        sensed.append(sample)
        times.append(world.time)
        slipping.append(world.slipping)
    result = runner.run_scenario(sc)

    assert len(sensed) == steps
    assert result.samples == sensed
    assert result.slip_times == [
        t for t, now, before in zip(times, slipping, [False] + slipping)
        if now and not before]
    assert (result.world, result.controller) == (world, state)
    assert result.outcome == outcome
    report = result.report(sc)
    if outcome == runner.Outcome.TIMEOUT:
        assert state.phase not in (Phase.DONE, Phase.FAULT)
    else:
        assert state.phase.value == outcome.value
    assert report["completion_time"] == times[-1]
    assert report["peak_torque"] == result.peak_torque == max(
        s.mz for s in sensed)
    assert report["final_force"] == sensed[-1].fz
