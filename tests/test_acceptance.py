"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure). Criteria with a runtime budget
assert the measured wall time as well.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from screwbench import analysis, cli, control, runner, scenario, sensor, sim
from screwbench.sim import FtSample


def report_line(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_1_speed_invariance():
    """Required torque at a given depth is identical across spindle speeds."""
    t0 = time.perf_counter()
    screw, sub = scenario.ScrewSpec(), scenario.SubstrateSpec()
    params = scenario.SimParams(p_max=1e-15)
    curves = {}
    for deg in (22.5, 90.0, 180.0, 360.0):
        speed = math.radians(deg)
        rng = np.random.default_rng(0)
        world = sim.initial_world(screw, scenario.Direction.UNSCREWING)
        depths, taus = [], []
        n = int(round(4.0 * math.tau / (speed * sensor.DT)))
        for _ in range(n):
            cmd = control.ToolCommand(z_cmd=world.contact_z + 0.006,
                                      spindle_speed=-speed)
            sim.step_world(world, cmd, screw, sub, params, rng)
            depths.append(world.engaged_depth)
            taus.append(sim.required_torque(world, sub,
                                            scenario.Direction.UNSCREWING))
        # reverse so depth is increasing for interpolation
        curves[deg] = (np.asarray(depths)[::-1], np.asarray(taus)[::-1])
    grid = np.linspace(0.0045, 0.0075, 50)
    ref = np.interp(grid, *curves[22.5])
    worst = max(np.max(np.abs(np.interp(grid, d, t) - ref) / ref)
                for d, t in curves.values())
    elapsed = time.perf_counter() - t0
    report_line(1, "speed invariance", worst < 0.01 and elapsed < 5.0)


def test_2_screwing_force_ramp_reproduction():
    """100 seeded screwing runs: early slips, late slip suppression once the
    force has ramped, and safe seating in at least 95 runs."""
    t0 = time.perf_counter()
    ok_a = ok_c = 0
    first_q_slips = last_q_slips = 0
    n_runs = 100
    for seed in range(n_runs):
        sc = scenario.default_scenario("screwing", seed=seed)
        nu = sc.controller.nu
        rows, peak_torque = [], 0.0
        for world, truth, sensed, state in runner.closed_loop(sc):
            rows.append((world.time, truth.fz,
                         sim.required_torque(world, sc.substrate,
                                             sc.direction),
                         state.phase.value, world.slipping))
            peak_torque = max(peak_torque, sensed.mz)
        t, force_true, tau_req, phase, slipping = map(np.asarray, zip(*rows))
        slips = slipping.astype(int)
        onsets = np.r_[slips[0], np.diff(slips) == 1].astype(bool)

        # (a) at least one slip before the applied force first reaches nu*tau
        meaningful = tau_req > 0.02
        ratio = np.where(meaningful,
                         force_true / np.maximum(nu * tau_req, 1e-9), 0.0)
        hit = np.nonzero(ratio >= 1.0)[0]
        t_hit = t[hit[0]] if len(hit) else t[-1]
        if np.any(t[onsets] < t_hit):
            ok_a += 1

        # (b) slip onsets per drive-phase quarter, aggregated over runs
        drive = np.nonzero(phase == control.Phase.DRIVE.value)[0]
        if len(drive) >= 8:
            q = len(drive) // 4
            first_q_slips += int(onsets[drive[:q]].sum())
            last_q_slips += int(onsets[drive[-q:]].sum())

        # (c) seated and stopped below the overload limit
        if (state.phase == control.Phase.DONE and world.seated
                and peak_torque <= 0.4):
            ok_c += 1
    elapsed = time.perf_counter() - t0
    ok = (ok_a == n_runs
          and last_q_slips < 0.2 * first_q_slips
          and ok_c >= 95
          and elapsed < 60.0)
    report_line(2, "screwing force ramp", ok)


def test_3_nu_recovery():
    """Slope of |F| on |tau| recovered within 5% under sensor noise."""
    t0 = time.perf_counter()
    ok = True
    for true_nu, seed in ((106.0, 0), (57.0, 1)):
        rng = np.random.default_rng(seed)
        tau = rng.uniform(0.02, 0.19, 1000)
        fz = np.abs(true_nu * tau + rng.normal(0, 0.1, 1000))
        mz = np.abs(tau + rng.normal(0, 0.003, 1000))
        samples = [FtSample(float((i + 1) * 0.01), float(a), float(b))
                   for i, (a, b) in enumerate(zip(fz, mz))]
        est = analysis.estimate_nu(analysis.FtSeries(samples=samples))
        ok = ok and abs(est.nu - true_nu) <= 0.05 * true_nu and est.r > 0.7
    elapsed = time.perf_counter() - t0
    report_line(3, "nu recovery", ok and elapsed < 1.0)


def test_4_regrasp_frequency():
    """Rectified oscillations at 1.3 Hz and 2.0 Hz recovered within 0.05 Hz."""
    t0 = time.perf_counter()
    ok = True
    for freq in (1.3, 2.0):
        t = np.arange(1, 1001) * 0.01
        fz = np.maximum(0.0, 10.0 * np.sin(2 * np.pi * freq * t))
        samples = [FtSample(float(tt), float(f), 0.1 * float(f))
                   for tt, f in zip(t, fz)]
        got = analysis.regrasp_frequency(analysis.FtSeries(samples=samples),
                                         "fz")
        ok = ok and abs(got - freq) <= 0.05
    elapsed = time.perf_counter() - t0
    report_line(4, "regrasp frequency", ok and elapsed < 1.0)


def _brute_force_p(n, m, u_obs):
    """Two-sided exact p by enumerating all rank splits of n+m values."""
    total = 0
    hits = 0
    u_min = min(u_obs, n * m - u_obs)
    base = n * (n + 1) / 2.0
    for combo in itertools.combinations(range(1, n + m + 1), n):
        u = sum(combo) - base
        total += 1
        if min(u, n * m - u) <= u_min + 1e-12:
            hits += 1
    return min(1.0, hits / total)


def test_5_mann_whitney_oracle():
    """Exact p equals brute-force enumeration; U identity always holds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 11))
        if min(n, m) > 8:
            n = 8
        pooled = rng.permutation(np.arange(1, n + m + 1)).astype(float)
        a, b = pooled[:n], pooled[n:]
        res = analysis.mann_whitney_u(a, b)
        res_rev = analysis.mann_whitney_u(b, a)
        ok = ok and res.method == analysis.UTestMethod.EXACT
        ok = ok and abs(res.u + res_rev.u - n * m) < 1e-12
        p_ref = _brute_force_p(n, m, res.u)
        ok = ok and abs(res.p - p_ref) < 1e-12
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report_line(5, "mann-whitney oracle", ok and elapsed < 30.0)


def test_6_envelope_monotonicity():
    """Unscrewing torque envelopes are non-increasing everywhere."""
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        sc = scenario.default_scenario("unscrewing", seed=seed)
        # spin out at the scenario speed while holding 30 N by tracking
        # the contact point
        rng = random.Random(sc.seed)
        world = sim.initial_world(sc.screw, sc.direction,
                                  contact_z=sc.contact_z)
        sensed = []
        for _ in range(1500):
            cmd = control.ToolCommand(
                z_cmd=world.contact_z + 30.0 / sc.sim.k_spring,
                spindle_speed=-control.SPINDLE_SPEED)
            truth = sim.step_world(world, cmd, sc.screw, sc.substrate,
                                   sc.sim, rng)
            sensed.append(sim.read_sensors(truth, sc.sim, rng))
        series = analysis.FtSeries(samples=sensed)
        peaks = analysis.local_maxima(series, "mz", min_prominence=0.009,
                                      min_separation=1.0)
        if len(peaks) < 2:
            ok = False
            break
        env = analysis.fit_envelope(peaks)
        grid = np.linspace(env.t_min, env.t_max, 2000)
        if np.any(np.diff(env(grid)) > 1e-9):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report_line(6, "envelope monotonicity", ok and elapsed < 30.0)


def test_7_controller_safety_properties():
    """Random sensor streams: target clamped, slips raise the target unless
    clamped, transitions stay inside the declared phase graph."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10_000):
        direction = "screwing" if rng.random() < 0.5 else "unscrewing"
        cfg = scenario.ControllerConfig(direction=direction)
        state = control.ControllerState()
        prev_phase = state.phase
        n = int(rng.integers(5, 40))
        fz = rng.uniform(0, 80, n)
        mz = rng.uniform(0, 0.39, n)
        for i in range(n):
            in_loop = state.phase in (control.Phase.ENGAGE,
                                      control.Phase.DRIVE)
            window = (list(state.torque_window) + [mz[i]])[
                -sensor.CAMOUT_WINDOW:]
            slip_seen = (in_loop and len(window) >= 2
                         and control.detect_camout(window, cfg))
            before = state.force_target
            control.update(state, FtSample(i * 0.01, fz[i], mz[i]), cfg)
            if state.phase not in control.ALLOWED_TRANSITIONS[prev_phase]:
                ok = False
            if in_loop and state.phase not in (control.Phase.DONE,
                                               control.Phase.FAULT):
                if not cfg.f_min <= state.force_target <= cfg.f_max:
                    ok = False
                if (slip_seen and before < cfg.f_max
                        and not state.force_target > before):
                    ok = False
            prev_phase = state.phase
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report_line(7, "controller safety", ok and elapsed < 60.0)


def test_8_simulate_determinism(tmp_path):
    """Identical scenario and seed give byte-identical log and report."""
    scen = tmp_path / "scenario.yaml"
    scen.write_text("direction: unscrewing\nduration: 30.0\nseed: 21\n")
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.yaml"
        rc = cli.main(["simulate", str(scen), "--out", str(out),
                       "--report", str(rep)])
        blobs.append((rc, out.read_bytes(), rep.read_bytes()))
    ok = (blobs[0][0] == blobs[1][0] == 0
          and blobs[0][1] == blobs[1][1]
          and blobs[0][2] == blobs[1][2])
    report_line(8, "determinism", ok)


def test_9_calibration_correctness():
    """OLS calibration matches closed-form normal equations."""
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 200))
        x = rng.uniform(-5, 10, n)
        if np.ptp(x) == 0.0:
            x[0] += 1.0
        y = rng.uniform(0.5, 8.0) * x + rng.normal(0, 0.5, n)
        res = analysis.calibrate_force(list(zip(x, y)))
        sx, sy = x.sum(), y.sum()
        gain = ((n * (x * y).sum() - sx * sy)
                / (n * (x * x).sum() - sx * sx))
        offset = (sy - gain * sx) / n
        scale = max(abs(gain), 1e-12)
        ok = ok and abs(res.gain - gain) <= 1e-10 * scale
        ok = ok and abs(res.offset - offset) <= 1e-10 * max(abs(offset), 1.0)
        if not ok:
            break
    report_line(9, "calibration correctness", ok)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
