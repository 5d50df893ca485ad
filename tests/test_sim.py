import dataclasses
import math
import random
import re
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from screwbench import control, runner, scenario, sensor, sim
from screwbench.errors import ScenarioError, ScrewbenchError


def make_world(**kw):
    return sim.WorldState(**kw)


class TestRequiredTorque:
    def test_disengaged_unscrewing_is_free(self):
        w = make_world(engaged_depth=0.0)
        tau = sim.required_torque(w, scenario.SubstrateSpec(),
                                  scenario.Direction.UNSCREWING)
        assert tau == 0.0

    def test_full_engagement_unscrewing_matches_calibration(self):
        # default plastic calibration: 0.19 N·m at full 8 mm engagement
        w = make_world(engaged_depth=0.008)
        tau = sim.required_torque(w, scenario.SubstrateSpec(),
                                  scenario.Direction.UNSCREWING)
        assert tau == pytest.approx(0.19, rel=1e-12)

    def test_screwing_adds_thread_cutting_torque(self):
        w = make_world(engaged_depth=0.004)
        sub = scenario.SubstrateSpec()
        tau_in = sim.required_torque(w, sub, scenario.Direction.SCREWING)
        tau_out = sim.required_torque(w, sub, scenario.Direction.UNSCREWING)
        assert tau_in == pytest.approx(tau_out + sub.tau_cut)

    def test_seating_term(self):
        sub = scenario.SubstrateSpec()
        w = make_world(engaged_depth=0.008, seated=True, seat_angle=10.0,
                       screw_angle=12.0)
        tau = sim.required_torque(w, sub, scenario.Direction.SCREWING)
        expected = sub.tau_cut + sub.k_depth * 0.008 + sub.k_seat * 2.0
        assert tau == pytest.approx(expected)

    def test_nut_running_torque_below_noise(self):
        sub = scenario.SubstrateSpec(kind="nut")
        params = scenario.SimParams()
        w = make_world(engaged_depth=0.004)
        tau = sim.required_torque(w, sub, scenario.Direction.SCREWING)
        assert 0.0 < tau < params.torque_noise_std

    def test_same_state_same_torque_regardless_of_speed_history(self):
        # torque depends on state only; two speed histories, same state
        screw, sub = scenario.ScrewSpec(), scenario.SubstrateSpec()
        params = scenario.SimParams(p_max=1e-15)
        taus = {}
        for speed in (math.radians(22.5), math.radians(360.0)):
            rng = np.random.default_rng(0)
            world = sim.initial_world(screw, scenario.Direction.UNSCREWING)
            # rotate by exactly two revolutions at each speed
            n = int(round(2.0 * math.tau / (speed * sensor.DT)))
            for _ in range(n):
                cmd = control.ToolCommand(
                    z_cmd=world.contact_z + 0.006, spindle_speed=-speed)
                sim.step_world(world, cmd, screw, sub, params, rng)
            taus[speed] = sim.required_torque(world, sub,
                                              scenario.Direction.UNSCREWING)
        vals = list(taus.values())
        assert vals[0] == pytest.approx(vals[1], rel=1e-9)


class TestSlipProbability:
    def setup_method(self):
        self.screw = scenario.ScrewSpec()
        self.params = scenario.SimParams()

    def test_large_force_suppresses_slip(self):
        p = sim.slip_probability(1e6, 0.19, self.screw, self.params)
        assert p < 1e-9

    def test_zero_force_slips_at_peak_rate(self):
        p = sim.slip_probability(0.0, 0.19, self.screw, self.params)
        assert p == pytest.approx(self.params.p_max, rel=0.01)

    def test_logistic_midpoint(self):
        tau = 0.15
        f = scenario.NU_CHAR[self.screw.head_type] * tau
        p = sim.slip_probability(f, tau, self.screw, self.params)
        assert p == pytest.approx(self.params.p_max / 2.0, rel=1e-12)

    def test_zero_torque_never_slips(self):
        assert sim.slip_probability(5.0, 0.0, self.screw, self.params) == 0.0

    @given(f1=st.floats(0, 100), f2=st.floats(0, 100),
           tau=st.floats(0.001, 0.5))
    def test_monotone_in_force(self, f1, f2, tau):
        lo, hi = sorted([f1, f2])
        p_lo = sim.slip_probability(hi, tau, self.screw, self.params)
        p_hi = sim.slip_probability(lo, tau, self.screw, self.params)
        assert p_lo <= p_hi

    @given(t1=st.floats(0.0, 0.5), t2=st.floats(0.0, 0.5),
           f=st.floats(0, 100))
    def test_monotone_in_torque(self, t1, t2, f):
        lo, hi = sorted([t1, t2])
        assert (sim.slip_probability(f, lo, self.screw, self.params)
                <= sim.slip_probability(f, hi, self.screw, self.params))


class TestStepWorld:
    def setup_method(self):
        self.screw = scenario.ScrewSpec()
        self.sub = scenario.SubstrateSpec()
        self.params = scenario.SimParams()

    def test_free_spin_in_air(self):
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        rng = np.random.default_rng(0)
        cmd = control.ToolCommand(z_cmd=0.001, spindle_speed=5.0)
        truth = sim.step_world(world, cmd, self.screw, self.sub,
                               self.params, rng)
        assert truth.fz == 0.0 and truth.mz == 0.0

    def test_static_contact_hooke(self):
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        rng = np.random.default_rng(0)
        cmd = control.ToolCommand(z_cmd=0.007, spindle_speed=0.0)
        truth = sim.step_world(world, cmd, self.screw, self.sub,
                               self.params, rng)
        assert truth.fz == pytest.approx(10.0)

    def test_spring_force_exact_pre_noise(self):
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        rng = np.random.default_rng(1)
        for z in (0.0052, 0.0061, 0.0083):
            cmd = control.ToolCommand(z_cmd=z, spindle_speed=3.0)
            deflection = max(0.0, z - world.contact_z)
            truth = sim.step_world(world, cmd, self.screw, self.sub,
                                   self.params, rng)
            assert truth.fz == self.params.k_spring * deflection

    def test_rejects_non_finite_command(self):
        world = make_world()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sim.step_world(world, control.ToolCommand(math.nan, 0.0),
                           self.screw, self.sub, self.params, rng)

    def test_engagement_round_trip(self):
        # screwing then unscrewing the same angle restores engaged depth
        params = scenario.SimParams(p_max=1e-15)
        world = make_world(engaged_depth=0.002, contact_z=0.005)
        rng = np.random.default_rng(0)
        start = world.engaged_depth
        speed = 2.0 * math.pi
        for sign in (1.0, -1.0):
            for _ in range(300):
                cmd = control.ToolCommand(z_cmd=world.contact_z + 0.006,
                                          spindle_speed=sign * speed)
                sim.step_world(world, cmd, self.screw, self.sub, params, rng)
        quantum = sim.THREAD_PITCH * speed * sensor.DT / math.tau
        assert abs(world.engaged_depth - start) <= quantum

    def test_slip_freezes_screw_and_torque(self):
        # barely-loaded contact: the slip probability is p_max / (1 + e^-6),
        # above 0.99 at p_max = 1
        params = scenario.SimParams(p_max=1.0)
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        rng = np.random.default_rng(0)
        cmd = control.ToolCommand(z_cmd=0.0050001, spindle_speed=2 * math.pi)
        sim.step_world(world, cmd, self.screw, self.sub, params, rng)
        assert world.slipping
        angle_before = world.screw_angle
        truth = sim.step_world(world, cmd, self.screw, self.sub, params, rng)
        assert truth.mz == 0.0
        assert world.screw_angle == angle_before

    def test_camout_holds_the_screw_for_whole_steps(self, monkeypatch):
        """A cam-out holds the screw on its onset step and the next
        max(1, round(SLIP_DWELL / DT)) steps: 11 at its 0.1 s. `slipping`
        reads False on the last of them, so a cam-out on the next step is a
        new onset."""
        cmd = control.ToolCommand(z_cmd=0.0051, spindle_speed=2 * math.pi)
        params = scenario.SimParams()
        for dwell, held in ((sim.SLIP_DWELL, 11), (0.03, 4), (0.0, 2)):
            monkeypatch.setattr(sim, "SLIP_DWELL", dwell)
            world = make_world(engaged_depth=0.004, contact_z=0.005)
            slipping = []
            # the first draw slips, no later one does
            for u in [0.0] + [params.p_max] * 20:
                sim.step_world(world, cmd, self.screw, self.sub, params,
                               CountingRng(u))
                slipping.append(world.slipping)
                if world.screw_angle != 0.0:  # this step turned the screw
                    break
            assert held == 1 + max(1, round(dwell / sensor.DT))
            assert slipping == [True] * (held - 1) + [False, False], dwell

    def test_seating_clamps_depth(self):
        params = scenario.SimParams(p_max=1e-15)
        world = make_world(engaged_depth=0.0079, contact_z=0.005)
        rng = np.random.default_rng(0)
        for _ in range(200):
            cmd = control.ToolCommand(z_cmd=world.contact_z + 0.006,
                                      spindle_speed=2 * math.pi)
            sim.step_world(world, cmd, self.screw, self.sub, params, rng)
        assert world.seated
        assert world.engaged_depth == self.screw.shank_length

    def test_unscrewing_never_seats(self):
        # a shank so long that one step's depth change rounds away leaves
        # the depth at the shank length, which must not seat the screw
        screw = scenario.ScrewSpec(shank_length=1e11)
        params = scenario.SimParams(p_max=1e-300)
        world = make_world(engaged_depth=screw.shank_length, contact_z=0.005)
        cmd = control.ToolCommand(z_cmd=world.contact_z + 0.006,
                                  spindle_speed=-2 * math.pi)
        truth = sim.step_world(world, cmd, screw, self.sub, params,
                               random.Random(0))
        assert truth.mz > 0.0 and world.screw_angle < 0.0  # it turned
        assert not world.seated
        assert world.engaged_depth == screw.shank_length

    def test_screwing_never_unseats(self):
        # at this angle one step's rotation rounds away, so the angle stays
        # at the seat angle, which must not unseat a screw turned inward
        params = scenario.SimParams(p_max=1e-300)
        world = make_world(engaged_depth=self.screw.shank_length, seated=True,
                           screw_angle=1e17, seat_angle=1e17, contact_z=0.005)
        cmd = control.ToolCommand(z_cmd=world.contact_z + 0.006,
                                  spindle_speed=2 * math.pi)
        truth = sim.step_world(world, cmd, self.screw, self.sub, params,
                               random.Random(0))
        assert truth.mz > 0.0  # it turned
        assert world.seated

    def test_unscrewing_unseats_then_backs_out(self):
        params = scenario.SimParams(p_max=1e-300)
        world = make_world(engaged_depth=self.screw.shank_length, seated=True,
                           screw_angle=10.03, seat_angle=10.0, contact_z=0.005)
        cmd = control.ToolCommand(z_cmd=world.contact_z + 0.006,
                                  spindle_speed=-math.tau)
        rng = random.Random(0)
        sim.step_world(world, cmd, self.screw, self.sub, params, rng)
        assert not world.seated
        assert world.engaged_depth == 0.008  # the unseating step
        sim.step_world(world, cmd, self.screw, self.sub, params, rng)
        assert world.engaged_depth == pytest.approx(0.007995, rel=1e-12)

    def test_deterministic_stream(self):
        def run():
            rng = np.random.default_rng(123)
            world = sim.initial_world(self.screw,
                                      scenario.Direction.UNSCREWING)
            out = []
            for _ in range(500):
                cmd = control.ToolCommand(z_cmd=world.contact_z + 0.004,
                                          spindle_speed=-2 * math.pi)
                truth = sim.step_world(world, cmd, self.screw, self.sub,
                                       self.params, rng)
                out.append(sim.read_sensors(truth, self.params, rng))
            return out

        a, b = run(), run()
        assert all(x.t == y.t and x.fz == y.fz and x.mz == y.mz
                   for x, y in zip(a, b))


class TestReadSensors:
    def test_zero_noise_is_identity(self):
        params = scenario.SimParams(force_noise_std=0.0, torque_noise_std=0.0)
        rng = np.random.default_rng(0)
        truth = sim.FtSample(t=1.0, fz=3.0, mz=0.1)
        out = sim.read_sensors(truth, params, rng)
        assert (out.t, out.fz, out.mz) == (1.0, 3.0, 0.1)

    def test_noise_std_recovered(self):
        params = scenario.SimParams()
        rng = np.random.default_rng(5)
        truth = sim.FtSample(t=0.0, fz=50.0, mz=0.0)
        fzs = np.array([sim.read_sensors(truth, params, rng).fz
                        for _ in range(10_000)])
        # fz well above zero, so rectification does not bias the spread
        assert np.std(fzs - 50.0) == pytest.approx(0.1, rel=0.10)

    def test_rectified_non_negative(self):
        params = scenario.SimParams()
        rng = np.random.default_rng(7)
        truth = sim.FtSample(t=0.0, fz=0.0, mz=0.0)
        for _ in range(1000):
            out = sim.read_sensors(truth, params, rng)
            assert out.fz >= 0.0 and out.mz >= 0.0


class CountingRng:
    """An rng of the one method the stream contract allows: it returns the
    given uniforms in turn, cycling, and counts the draws."""

    def __init__(self, *draws):
        self.draws = draws or (0.5,)
        self.calls = 0

    def random(self):
        u = self.draws[self.calls % len(self.draws)]
        self.calls += 1
        return u


class TestStreamContract:
    """One `random.Random(seed)` stream: `step_world` draws one uniform and
    `read_sensors` two, every step, whatever the state."""

    def setup_method(self):
        self.screw = scenario.ScrewSpec()
        self.sub = scenario.SubstrateSpec()
        self.params = scenario.SimParams()
        self.pressed = control.ToolCommand(z_cmd=0.0051,
                                           spindle_speed=2 * math.pi)

    def step(self, world, cmd, u):
        rng = CountingRng(u)
        sim.step_world(world, cmd, self.screw, self.sub, self.params, rng)
        return rng.calls

    def test_not_engaged_draws_once(self):
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        cmd = control.ToolCommand(z_cmd=0.001, spindle_speed=5.0)
        assert self.step(world, cmd, u=0.0) == 1
        assert not world.slipping

    def test_engaged_without_slip_draws_once(self):
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        # u at or above p_max never slips
        assert self.step(world, self.pressed, u=self.params.p_max) == 1
        assert not world.slipping and world.screw_angle > 0.0

    def test_slip_onset_and_dwell_draw_once_per_step(self):
        world = make_world(engaged_depth=0.004, contact_z=0.005)
        n = round(sim.SLIP_DWELL / sensor.DT)
        slipping = []
        for _ in range(1 + n):  # the onset step, then the dwell
            assert self.step(world, self.pressed, u=0.0) == 1
            slipping.append(world.slipping)
        assert slipping == [True] * n + [False]

    def test_read_sensors_draws_one_box_muller_pair(self):
        """u1 = 1 - exp(-1/2) gives radius 1; u2 = 1/4 gives angle pi/2,
        so the whole unit of noise goes to torque."""
        rng = CountingRng(1.0 - math.exp(-0.5), 0.25)
        out = sim.read_sensors(sim.FtSample(t=0.0, fz=10.0, mz=1.0),
                               self.params, rng)
        assert rng.calls == 2
        assert out.fz == pytest.approx(10.0, abs=1e-15)
        assert out.mz == pytest.approx(1.0 + self.params.torque_noise_std,
                                       rel=1e-14)

    @pytest.mark.parametrize("direction, seed",
                             [("screwing", 0), ("unscrewing", 5)])
    def test_whole_run_draws_three_per_step(self, monkeypatch, direction,
                                            seed):
        """Over a whole closed-loop run the seeded stream is drawn three
        times per step, and counting the draws changes no sample."""
        sc = scenario.default_scenario(direction, seed=seed)
        unpatched = [sensed for _, _, sensed, _ in runner.closed_loop(sc)]
        draws = 0

        class Counting(random.Random):
            def random(self):
                nonlocal draws
                draws += 1
                return super().random()

        monkeypatch.setattr(runner.random, "Random", Counting)
        counted = [sensed for _, _, sensed, _ in runner.closed_loop(sc)]
        assert draws == 3 * len(counted)
        assert counted == unpatched

    def test_noise_moments(self):
        """Far from zero, where rectification does not act, the noise has
        the configured mean and spread."""
        params = self.params
        rng = random.Random(2024)
        truth = sim.FtSample(t=0.0, fz=10.0, mz=1.0)
        n = 20_000
        out = [sim.read_sensors(truth, params, rng) for _ in range(n)]
        for values, true, std in (
                ([s.fz for s in out], truth.fz, params.force_noise_std),
                ([s.mz for s in out], truth.mz, params.torque_noise_std)):
            assert abs(statistics.fmean(values) - true) < 3 * std / math.sqrt(n)
            assert statistics.stdev(values) == pytest.approx(std, rel=0.02)


@pytest.mark.parametrize("seconds, count", [
    (0.0, 1), (0.004, 1), (0.006, 1), (0.03, 3), (0.1, 10), (40.0, 4000)])
def test_periods_is_the_nearest_count_and_at_least_one(seconds, count):
    """The one rule the dwell, the FREE spin and the run length count
    whole sample periods by."""
    assert sensor.periods(seconds) == count


def test_nu_char_ordering_across_heads():
    hex_nu = scenario.NU_CHAR[scenario.HeadType.INTERNAL_HEX]
    phil_nu = scenario.NU_CHAR[scenario.HeadType.PHILLIPS]
    bad_nu = scenario.NU_CHAR[scenario.HeadType.MISMATCHED_DRIVER]
    assert hex_nu < phil_nu < bad_nu


def test_invalid_specs_raise():
    with pytest.raises(ValueError):
        scenario.ScrewSpec(shank_length=0.0)
    with pytest.raises(ValueError):
        scenario.SubstrateSpec(k_seat=0.0)
    with pytest.raises(ValueError):
        scenario.SimParams(p_max=0.0)
    with pytest.raises(TypeError, match="'dt'"):
        scenario.SimParams(dt=-0.01)


def _sign_rows(section, positive, non_negative):
    """A row per sign rule of a section: each `positive` field at 0, each
    `non_negative` field at -1."""
    return ([({section: {name: 0}},
              rf"{section}\.{name}: must be > 0, got 0$")
             for name in positive]
            + [({section: {name: -1}},
                rf"{section}\.{name}: must be >= 0, got -1$")
               for name in non_negative])


@pytest.mark.parametrize("overrides, field", [
    ({"duration": float("nan")}, "duration"),
    ({"duration": float("inf")}, "duration"),
    ({"contact_z": float("nan")}, "contact_z"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"sim": {"k_spring": "abc"}}, r"sim\.k_spring"),
    ({"sim": {"k_spring": 0}}, "k_spring"),
    ({"controller": {"margin": float("inf")}}, r"controller\.margin"),
    ({"controller": {"margin": True}}, r"controller\.margin"),
    ({"seed": 30.5}, r"seed: expected an integer, got 30\.5$"),
    ({"controller": {"margin": 1e200, "nu": 1e200}},
     r"controller\.margin: margin \* nu must be finite, got 1e\+200 \*"),
    ({"controller": None}, "controller: expected a mapping"),
    ({"controller": [1]}, "controller: expected a mapping"),
    ({"duration": 0.004}, "duration"),
    ({"duration": 1.0e308}, "duration"),
    ({"duration": 1.0e308},
     r"^duration: too large to count in sample periods, got 1e\+308$"),
    *_sign_rows("controller", ("nu", "margin", "base_ramp", "k_spring_est"),
                ("f_min", "noise_floor")),
    # the PI gains, travel limit, overload fault and FREE spin are
    # constants: a value that broke their old rules is an unknown field
    *[({"controller": {name: value}}, rf"controller\.{name}: unknown field$")
      for name, value in (("free_spin_time", 1.0e308), ("travel_limit", 0),
                          ("overload_torque", 0), ("kp", -1), ("ki", -1),
                          ("free_spin_time", -1))],
    *_sign_rows("screw", ("shank_length",), ()),
    *_sign_rows("substrate", ("k_seat",), ("tau_cut", "k_depth",
                                           "tau_run_nut")),
    *_sign_rows("sim", ("k_spring", "p_max"),
                ("force_noise_std", "torque_noise_std")),
    ({"seed": -1}, r"seed: must be >= 0, got -1$"),
    # the thread pitch, the head's slippage ratio and the cam-out logistic's
    # sharpness and dwell are constants: a value that broke their old rules,
    # or the None that stood for the head type's ratio, is an unknown field
    *[({section: {name: value}}, rf"{section}\.{name}: unknown field$")
      for section, name, value in (
          ("screw", "thread_pitch", 0), ("screw", "nu_char", 0),
          ("screw", "nu_char", None), ("sim", "slip_sharpness", 0),
          ("sim", "slip_sharpness", -6.0), ("sim", "slip_dwell", -1),
          ("sim", "slip_dwell", 1.0e308))],
    # of two bad fields, the first in field order is named
    ({"sim": {"torque_noise_std": -1, "k_spring": -1}},
     r"sim\.k_spring: must be > 0, got -1$"),
    # cross-field rules name their first field
    ({"sim": {"p_max": 2}}, r"sim\.p_max: must be <= 1$"),
    ({"controller": {"f_min": 60}}, r"controller\.f_min: must be <= f_max$"),
    ({"controller": {"tau_stop": 0.01}},
     r"controller\.tau_stop: must be > noise_floor$"),
    # the cam-out rule's window and drop fraction are constants: a value
    # that broke their old range rules, or any other, is an unknown field
    ({"controller": {"theta_slip": 0}},
     r"controller\.theta_slip: unknown field$"),
    ({"controller": {"theta_slip": 1}},
     r"controller\.theta_slip: unknown field$"),
    ({"controller": {"window": 1}}, r"controller\.window: unknown field$"),
    ({"controller": {"window": 2 ** 63}},
     r"controller\.window: unknown field$"),
    # enum fields
    ({"screw": {"head_type": "torx"}},
     r"screw\.head_type: expected one of phillips, .*, got 'torx'$"),
    ({"substrate": {"kind": [1]}}, r"substrate\.kind: expected one of "),
    ({"direction": "sideways"}, r"direction: expected one of screwing, "),
    # the number types are exact: a numpy scalar or a Fraction is refused
    ({"seed": np.int64(3)}, r"^seed: expected an integer, got "),
    ({"sim": {"k_spring": np.float64(5000.0)}},
     r"^sim\.k_spring: expected a finite number, got "),
    ({"sim": {"p_max": Fraction(1, 2)}},
     r"^sim\.p_max: expected a finite number, got Fraction\(1, 2\)$"),
    ({"sim": {"k_spring": True}},
     r"^sim\.k_spring: expected a finite number, got True$"),
    ({"controller": {"slip_limit": 10}},
     r"^controller\.slip_limit: unknown field$"),
], ids=lambda v: repr(v) if isinstance(v, dict) else None)
def test_invalid_scenario_value_names_field(overrides, field):
    with pytest.raises(ScenarioError, match=field):
        scenario.scenario_from_dict({"seed": 1, **overrides})


@pytest.mark.parametrize("cls", [
    scenario.ScrewSpec, scenario.SubstrateSpec, scenario.SimParams,
    scenario.ControllerConfig, scenario.Scenario], ids=lambda c: c.__name__)
def test_sign_rule_tables_name_number_fields_with_good_defaults(cls):
    """Every rule-table name is a number field and every default obeys its
    own rule. The constructor checks only the fields it is given, so a
    misspelled name in a rule table, or a default that breaks its rule,
    would go unchecked in every scenario that leaves the field out."""
    number_fields = {f.name: f.default for f in dataclasses.fields(cls)
                     if f.type in (float, int)}
    assert set(cls.positive) <= number_fields.keys()
    assert set(cls.non_negative) <= number_fields.keys()
    assert not set(cls.positive) & set(cls.non_negative)
    for names, rule in ((cls.positive, lambda v: v > 0),
                        (cls.non_negative, lambda v: v >= 0)):
        for name in names:
            default = number_fields[name]
            if default is dataclasses.MISSING:
                continue
            assert rule(default), name


@pytest.mark.parametrize("cls", [
    scenario.ScrewSpec, scenario.SubstrateSpec, scenario.SimParams,
    scenario.ControllerConfig, scenario.Scenario], ids=lambda c: c.__name__)
def test_field_types_are_classes(cls):
    """Each field's type is its class, not an annotation string, so the
    tests that pick fields by `f.type` compare it with `float` and `int`
    and cannot pass without checking anything."""
    for f in dataclasses.fields(cls):
        assert isinstance(f.type, type), (f.name, f.type)


# Values of every kind a YAML file can hold: numbers finite, huge and
# non-finite, integers beyond 64 bits, bools, strings, null, lists and
# mappings. Half the draws are plausible field values (small positive
# numbers, enum names), so that many drawn scenarios are valid.
_plausible_values = st.one_of(
    st.floats(0.01, 10.0), st.integers(2, 100),
    st.sampled_from(["screwing", "unscrewing", "phillips", "internal_hex",
                     "nut", "plastic_hole"]))
_other_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.004, 1e308, -1e308, 2 ** 63, 2 ** 64]),
    st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
# (one_of would flatten the two into a dozen equal branches)
_yaml_values = st.booleans().flatmap(
    lambda plausible: _plausible_values if plausible else _other_values)


def _section(cls):
    # a few keys per section, so that many drawn scenarios are valid
    keys = st.sampled_from([f.name for f in dataclasses.fields(cls)])
    return st.one_of(st.dictionaries(keys, _yaml_values, max_size=3),
                     _yaml_values)


# What a `ScenarioError` message from such a mapping starts with, before
# ": ": a section, a top-level field, or a section's field (or a key a
# section does not know).
_SECTIONS = {"screw": scenario.ScrewSpec,
             "substrate": scenario.SubstrateSpec,
             "sim": scenario.SimParams,
             "controller": scenario.ControllerConfig}
_ERROR_HEADS = {
    "scenario", "direction",
    *(f.name for f in dataclasses.fields(scenario.Scenario)),
    *(f"{section}.{f.name}" for section, cls in _SECTIONS.items()
      for f in dataclasses.fields(cls))}

_scenario_dicts = st.fixed_dictionaries({
    "seed": st.one_of(st.integers(0, 2 ** 70), _yaml_values),
}, optional={
    "direction": st.one_of(st.sampled_from(["screwing", "unscrewing"]),
                           _yaml_values),
    "duration": _yaml_values,
    "contact_z": _yaml_values,
    **{section: _section(cls) for section, cls in _SECTIONS.items()},
})


@settings(max_examples=300, deadline=None)
@given(data=_scenario_dicts)
@example(data={"seed": 0, "controller": {"direction": "screwing"}})
def test_any_mapping_gives_scenario_or_scenario_error(data):
    """A mapping either fails with a `ScenarioError` whose message names a
    section or field, or gives a scenario whose controller state and start
    world build, with the mapping's one top-level direction."""
    try:
        scen = scenario.scenario_from_dict(data)
    except ScenarioError as exc:
        heads = _ERROR_HEADS | {
            f"{section}.{key}" for section in _SECTIONS
            if isinstance(data.get(section), dict) for key in data[section]}
        assert any(str(exc).startswith(f"{head}: ") for head in heads), exc
        return
    direction = data.get("direction", scenario.ControllerConfig.direction)
    assert scen.direction == scen.controller.direction == direction
    for settings_obj in (scen, scen.screw, scen.substrate, scen.sim,
                         scen.controller):
        for f in dataclasses.fields(settings_obj):
            value = getattr(settings_obj, f.name)
            if f.type is float:
                assert type(value) is float and math.isfinite(value), f.name
            elif f.type is int:
                assert type(value) is int, f.name
    control.ControllerState()
    sim.initial_world(scen.screw, scen.direction, contact_z=scen.contact_z)


def test_integer_literals_are_numbers():
    scen = scenario.scenario_from_dict({
        "seed": 3, "duration": 40, "contact_z": 0,
        "sim": {"k_spring": 5000},
        "controller": {"base_ramp": 1, "nu": 100}})
    assert scen.duration == 40.0 and scen.sim.k_spring == 5000
    assert type(scen.controller.base_ramp) is float
    assert scen.controller.base_ramp == 1.0


@pytest.mark.parametrize("section, key, value", [
    ("sim", "dt", 0.005),
    ("screw", "cam_geometry_angle", 1.0),
    ("substrate", "orientation", "vertical"),
    ("controller", "direction", "screwing"),
    ("controller", "kd", 0.1),
    ("controller", "integrator_limit", 4.0),
    ("controller", "spindle_speed", 3.0),
    ("controller", "approach_speed", 0.01),
    ("controller", "contact_threshold", 1.0),
    ("controller", "slip_ramp", 4.0),
    ("controller", "slip_limit", 10),
], ids=["sim.dt", "screw.cam_geometry_angle", "substrate.orientation",
        "controller.direction", "controller.kd",
        "controller.integrator_limit", "controller.spindle_speed",
        "controller.approach_speed", "controller.contact_threshold",
        "controller.slip_ramp", "controller.slip_limit"])
def test_removed_setting_is_not_a_scenario_field(section, key, value):
    with pytest.raises(ScenarioError, match=rf"{section}\.{key}: unknown"):
        scenario.scenario_from_dict({"seed": 1, section: {key: value}})


def test_scenario_built_in_code_rejects_negative_seed():
    """`random.Random(-1)` gives seed 1's stream, so a negative seed is
    refused wherever the scenario is built, not only in a file."""
    with pytest.raises(ScenarioError, match="seed: must be >= 0"):
        dataclasses.replace(scenario.default_scenario("screwing"), seed=-1)


@pytest.mark.parametrize("build, field", [
    (lambda: scenario.ScrewSpec(shank_length=math.nan), "shank_length"),
    (lambda: scenario.SubstrateSpec(k_seat=math.inf), "k_seat"),
    (lambda: scenario.SimParams(p_max=True), "p_max"),
    (lambda: scenario.ControllerConfig(margin=math.nan), "margin"),
    (lambda: dataclasses.replace(scenario.default_scenario("screwing"),
                                 seed=30.5), "seed: expected an integer"),
    # of two bad fields, the first in field order is named
    (lambda: scenario.ControllerConfig(margin=math.nan, nu=math.nan), "nu:"),
    (lambda: dataclasses.replace(scenario.default_scenario("screwing"),
                                 contact_z=math.nan), "contact_z"),
    (lambda: dataclasses.replace(scenario.default_scenario("screwing"),
                                 duration=math.nan),
     "duration: expected a finite number"),
    # past the digits `repr` converts, so the message shows its size
    (lambda: scenario.SimParams(k_spring=10 ** 5000),
     "k_spring: expected a finite number, got <int of 16610 bits>$"),
], ids=["shank_length", "k_seat", "p_max", "margin", "seed", "margin_and_nu",
        "contact_z", "duration", "k_spring_past_the_digit_limit"])
def test_settings_built_in_code_follow_the_number_rule(build, field):
    """Settings built in code obey the number rule a scenario file obeys,
    so no run starts from a non-finite or mistyped setting."""
    with pytest.raises(ScenarioError, match=rf"^{field}"):
        build()


def test_settings_share_one_keyword_constructor():
    """Every settings class is built through one checking constructor,
    which takes fields by keyword and names a field it lacks."""
    parts = {"substrate": scenario.SubstrateSpec(),
             "sim": scenario.SimParams(),
             "controller": scenario.ControllerConfig(), "seed": 1}
    with pytest.raises(TypeError, match="'screw'"):
        scenario.Scenario(**parts)
    with pytest.raises(TypeError):
        scenario.ScrewSpec(scenario.HeadType.PHILLIPS)
    assert scenario.ScrewSpec.__init__ is scenario.ControllerConfig.__init__


@pytest.mark.parametrize("section", ["screw", "substrate", "sim",
                                     "controller"])
@pytest.mark.parametrize("wrong", ["none", "other_section"])
def test_scenario_built_in_code_checks_its_sections(section, wrong):
    """A section given as None or as another section's object is refused
    where the scenario is built, naming the section, instead of failing in
    the run's first step."""
    sc = scenario.default_scenario("screwing")
    value = {"none": None,
             "other_section": sc.sim if section == "controller"
             else sc.controller}[wrong]
    expected = type(getattr(sc, section)).__name__
    message = f"{section}: expected a {expected}, got {value!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(sc, **{section: value})


# A few named settings per class, each built afresh on every call: the
# default, one that differs from it in the first field only, one in the
# last field only, and one in several.
_SETTINGS_EXAMPLES = {
    scenario.ScrewSpec: lambda: [
        scenario.ScrewSpec(),
        scenario.ScrewSpec(head_type="internal_hex"),
        scenario.ScrewSpec(shank_length=0.01),
        scenario.ScrewSpec(head_type="mismatched_driver",
                           shank_length=0.006)],
    scenario.SubstrateSpec: lambda: [
        scenario.SubstrateSpec(), scenario.SubstrateSpec(kind="nut"),
        scenario.SubstrateSpec(k_seat=0.1),
        scenario.SubstrateSpec(tau_cut=0, k_depth=20)],
    scenario.SimParams: lambda: [
        scenario.SimParams(), scenario.SimParams(k_spring=4000),
        scenario.SimParams(p_max=0.5),
        scenario.SimParams(torque_noise_std=0, p_max=0.5)],
    scenario.ControllerConfig: lambda: [
        scenario.ControllerConfig(),
        scenario.ControllerConfig(direction="screwing"),
        scenario.ControllerConfig(k_spring_est=4000),
        scenario.ControllerConfig(base_ramp=1, tau_stop=1, margin=3)],
    scenario.Scenario: lambda: [
        scenario.default_scenario("screwing"),
        scenario.default_scenario("screwing", screw={"shank_length": 0.01}),
        scenario.default_scenario("screwing", contact_z=0.004),
        scenario.default_scenario("unscrewing", seed=5, duration=10)],
}
# Each class's twin: a plain dataclass with the same fields, whose `repr`,
# `==` and hashing the dataclass machinery generates.
_TWINS = {cls: dataclasses.make_dataclass(
    cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)])
    for cls in _SETTINGS_EXAMPLES}


def _twin(value):
    """`value` with each settings object in it replaced by its twin."""
    if type(value) not in _TWINS:
        return value
    return _TWINS[type(value)](**{f.name: _twin(getattr(value, f.name))
                                  for f in dataclasses.fields(value)})


@pytest.mark.parametrize("cls", list(_SETTINGS_EXAMPLES),
                         ids=lambda c: c.__name__)
def test_settings_methods_match_generated_dataclass_methods(cls):
    """`repr`, `==`, `!=`, hashing and `dataclasses.replace` of a settings
    class agree with those of its generated twin."""
    objs, again = _SETTINGS_EXAMPLES[cls](), _SETTINGS_EXAMPLES[cls]()
    for a in objs:
        assert repr(a) == repr(_twin(a))
        for obj in (a, _twin(a)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        other = next(make()[0] for c, make in _SETTINGS_EXAMPLES.items()
                     if c is not cls)
        for b in [*objs, *again, other, None, 1.0]:
            assert a.__eq__(b) == _twin(a).__eq__(_twin(b))  # NotImplemented
            assert (a == b) == (_twin(a) == _twin(b))
            assert (a != b) == (_twin(a) != _twin(b))
        # a settings object holding itself prints as `...` there
        last = dataclasses.fields(cls)[-1].name
        loop, twin_loop = (dataclasses.replace(obj) for obj in (a, _twin(a)))
        setattr(loop, last, loop)
        setattr(twin_loop, last, twin_loop)
        assert repr(loop) == repr(twin_loop)
        # each field of every example put into the first
        for f in dataclasses.fields(cls):
            value = getattr(a, f.name)
            assert (repr(dataclasses.replace(objs[0], **{f.name: value}))
                    == repr(dataclasses.replace(_twin(objs[0]),
                                                **{f.name: _twin(value)})))


def test_integer_too_large_for_a_float_names_field():
    """`math.isfinite(10**309)` raises OverflowError; the number rule turns
    it into the field's own error."""
    with pytest.raises(ScenarioError,
                       match=r"^sim\.k_spring: expected a finite number"):
        scenario.scenario_from_dict({"seed": 1, "sim": {"k_spring": 10**309}})


@pytest.mark.parametrize("text", ["- 1\n", "0\n", "false\n", "[]\n", "''\n"],
                         ids=["list", "zero", "false", "empty_list",
                              "empty_string"])
def test_scenario_file_with_a_list_at_top_level_is_refused(tmp_path, text):
    """Any document that is not a mapping, falsy ones too; only an empty
    file stands for an empty mapping."""
    path = tmp_path / "top.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError,
                       match="^scenario: expected a mapping at top level$"):
        scenario.load_scenario(path)

@pytest.mark.parametrize("text, error", [
    # int beyond Python's digit limit: a readable file with a bad value
    (b"seed: 1" + b"0" * 5000 + b"\n", ScenarioError),
    # not UTF-8: `logio` cannot read it
    (b"\xff\xfe seed: 1\n", ScrewbenchError),
], ids=["long_int", "not_utf8"])
def test_unparsable_scenario_file_names_it(tmp_path, text, error):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    with pytest.raises(error, match="bad.yaml") as info:
        scenario.load_scenario(path)
    assert info.type is error


def test_readme_scenario_block_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```$", readme,
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        scen = scenario.scenario_from_dict(yaml.safe_load(block))
        assert scen.seed == 42
