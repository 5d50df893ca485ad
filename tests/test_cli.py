import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from screwbench import analysis, cli, logio
from screwbench.errors import LogFormatError
from screwbench.sim import FtSample

SCENARIO_TEXT = """\
direction: unscrewing
duration: 30.0
seed: 7
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_TEXT)
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, scenario_file):
        paths = {}
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rep = tmp_path / f"{tag}.yaml"
            assert run_cli("simulate", scenario_file,
                           "--out", out, "--report", rep) == 0
            paths[tag] = (out, rep)
        assert paths["a"][0].read_bytes() == paths["b"][0].read_bytes()
        assert paths["a"][1].read_bytes() == paths["b"][1].read_bytes()

    def test_seed_override_changes_output(self, tmp_path, scenario_file):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            rep = tmp_path / f"s{seed}.yaml"
            run_cli("simulate", scenario_file, "--seed", seed,
                    "--out", out, "--report", rep)
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_short_duration_times_out(self, tmp_path):
        scen = tmp_path / "short.yaml"
        scen.write_text("direction: unscrewing\nduration: 0.5\nseed: 1\n")
        rep = tmp_path / "r.yaml"
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", rep) == 0
        report = yaml.safe_load(rep.read_text())
        assert report["outcome"] == "timeout"

    def test_invalid_scenario_exits_nonzero(self, tmp_path, capsys):
        scen = tmp_path / "bad.yaml"
        scen.write_text("direction: sideways\nseed: 1\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert "direction" in capsys.readouterr().err

    def test_missing_seed_rejected(self, tmp_path, capsys):
        scen = tmp_path / "noseed.yaml"
        scen.write_text("direction: screwing\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_override_rejected(self, tmp_path, scenario_file,
                                             capsys):
        assert run_cli("simulate", scenario_file, "--seed", -1,
                       "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert "--seed" in capsys.readouterr().err

    def test_scenario_dir_env(self, tmp_path, monkeypatch):
        (tmp_path / "named.yaml").write_text(SCENARIO_TEXT)
        monkeypatch.setenv(cli.SCENARIO_DIR_ENV, str(tmp_path))
        assert run_cli("simulate", "named", "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 0


class TestLogIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [FtSample(i * 0.01, rng.uniform(0, 50),
                            rng.uniform(0, 0.4)) for i in range(200)]
        path = tmp_path / "log.csv"
        logio.write_log(path, samples)
        series = logio.read_log(path)
        got = np.stack([series.times(), series.channel("fz"),
                        series.channel("mz")], axis=1)
        assert got.tobytes() == np.array(samples).tobytes()

    def test_header_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        logio.write_log(path, [FtSample(0.01, 1.0, 0.1)])
        assert path.read_text().splitlines()[0] == "t_s,fz_n,mz_nm"

    def test_malformed_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,fz_n,mz_nm\n0.01,1.0,0.1\n0.02,oops,0.1\n")
        with pytest.raises(LogFormatError, match="line 3"):
            logio.read_log(path)

    @pytest.mark.parametrize("row", ["0.02,nan,0.1", "0.02,1.0,inf",
                                     "0.02,-inf,0.1", "nan,1.0,0.1"])
    def test_non_finite_value_cites_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_s,fz_n,mz_nm\n0.01,1.0,0.1\n{row}\n")
        with pytest.raises(LogFormatError, match="line 3"):
            logio.read_log(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,force,torque\n0.01,1.0,0.1\n")
        with pytest.raises(LogFormatError, match="line 1"):
            logio.read_log(path)


@pytest.mark.parametrize("case", ["analyze_missing_log",
                                  "analyze_not_utf8_log",
                                  "calibrate_not_utf8_pairs",
                                  "simulate_out_in_missing_dir"])
def test_unreadable_file_is_one_error_line(tmp_path, scenario_file, capsys,
                                           case):
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"\xff\xfe0.01,1.0,0.1\n")
    missing = tmp_path / "missing" / "run.csv"
    argv, named = {
        "analyze_missing_log": (["analyze", missing], missing),
        "analyze_not_utf8_log": (["analyze", not_utf8], not_utf8),
        "calibrate_not_utf8_pairs": (["calibrate", not_utf8], not_utf8),
        "simulate_out_in_missing_dir": (
            ["simulate", scenario_file, "--out", missing,
             "--report", tmp_path / "r.yaml"], missing),
    }[case]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err


def reference_slip_count(mz):
    """The per-sample loop `analyze` counted slips with before it shared
    the controller's detector, with the controller's default thresholds."""
    events = 0
    flagged = False
    for i in range(1, len(mz)):
        lo = max(0, i - 30 + 1)
        peak = float(np.max(mz[lo:i + 1]))
        drop = peak > 0.01 and mz[i] < 0.5 * peak
        if drop and not flagged:
            events += 1
        flagged = drop
    return events


# Torque records of 1 to 90 samples (three default windows) built from runs,
# so zeros and plateaus (ties with the window maximum) are common.
_levels = st.one_of(st.sampled_from([0.0, 0.005, 0.01, 0.02, 0.04, 0.2]),
                    st.floats(0.0, 0.4))
torque_records = st.lists(
    st.tuples(_levels, st.integers(1, 12)), min_size=1, max_size=90).map(
    lambda runs: [v for v, k in runs for _ in range(k)][:90])


class TestSlipFlagCount:
    @settings(max_examples=300, deadline=None)
    @given(torque_records)
    def test_matches_reference_loop(self, values):
        mz = np.asarray(values)
        assert cli._count_slip_flags(mz) == reference_slip_count(mz)

    def test_matches_reference_loop_on_benchmark_session(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import fixtures
        path = tmp_path / "session.csv"
        path.write_text(fixtures.session_log(0))
        mz = logio.read_log(path).channel("mz")
        assert len(mz) == fixtures.SESSION_SAMPLES
        count = cli._count_slip_flags(mz)
        assert count > 0
        assert count == reference_slip_count(mz)


def write_line_log(path, nu=106.0, n=600):
    """Synthetic oscillatory log with F exactly nu * tau."""
    t = np.arange(1, n + 1) * 0.01
    tau = 0.1 + 0.05 * np.sin(2 * np.pi * 1.3 * t)
    samples = [FtSample(float(tt), float(nu * mz), float(mz))
               for tt, mz in zip(t, tau)]
    logio.write_log(path, samples)


class TestAnalyze:
    def test_exact_line_report(self, tmp_path, capsys):
        log = tmp_path / "line.csv"
        write_line_log(log, nu=106.0)
        rep = tmp_path / "an.yaml"
        assert run_cli("analyze", log, "--report", rep) == 0
        report = yaml.safe_load(rep.read_text())
        assert report["nu"] == pytest.approx(106.0)
        assert report["r"] == pytest.approx(1.0)
        assert report["regrasp_frequency_hz"] == pytest.approx(1.3, abs=0.05)
        assert report["peak_count"] >= 3

    def test_constant_zero_log_exits_nonzero(self, tmp_path, capsys):
        log = tmp_path / "zero.csv"
        logio.write_log(log, [FtSample(i * 0.01, 0.0, 0.0)
                              for i in range(1, 100)])
        assert run_cli("analyze", log) == 1
        assert "variance" in capsys.readouterr().err

    def test_torque_near_float_limit_gives_one_error_line(self, tmp_path,
                                                         capsys):
        log = tmp_path / "tiny.csv"
        logio.write_log(log, [FtSample(i * 0.01, f, m) for i, (f, m) in
                              enumerate([(1.0, 0.0), (2.0, 1e-300),
                                         (3.0, 2e-300), (1.0, 0.0)])])
        assert run_cli("analyze", log) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: force/torque fit is degenerate")
        assert err.count("\n") == 1

    def test_negative_envelope_points_rejected(self, tmp_path, capsys):
        log = tmp_path / "line.csv"
        write_line_log(log)  # enough peaks for an envelope
        assert run_cli("analyze", log, "--envelope-points", -1) == 1
        assert capsys.readouterr().err == (
            "error: --envelope-points: must be >= 0\n")
        # checked before the log is read
        assert run_cli("analyze", tmp_path / "missing.csv",
                       "--envelope-points", -1) == 1
        assert "--envelope-points" in capsys.readouterr().err
        rep = tmp_path / "an.yaml"
        assert run_cli("analyze", log, "--envelope-points", 0,
                       "--report", rep) == 0
        report = yaml.safe_load(rep.read_text())
        assert report["envelope_t"] == report["envelope_mz"] == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_min_separation_rejected(self, tmp_path, capsys, value):
        log = tmp_path / "line.csv"
        write_line_log(log)
        assert run_cli("analyze", log, f"--min-separation={value}") == 1
        assert capsys.readouterr().err == (
            "error: --min-separation: must be a finite number >= 0\n")
        # checked before the log is read
        assert run_cli("analyze", tmp_path / "missing.csv",
                       f"--min-separation={value}") == 1
        assert "--min-separation" in capsys.readouterr().err

    @pytest.mark.parametrize("separation", [0, 1.0])
    def test_regrasp_frequency_follows_min_separation(self, tmp_path,
                                                      capsys, separation):
        """The frequency is read from the peaks the report lists."""
        log = tmp_path / "line.csv"
        write_line_log(log, n=1000)
        rep = tmp_path / "an.yaml"
        assert run_cli("analyze", log, "--min-separation", separation,
                       "--report", rep) == 0
        report = yaml.safe_load(rep.read_text())
        assert report["peak_count"] >= 3
        assert report["regrasp_frequency_hz"] == (
            1.0 / np.median(np.diff(report["peak_times"])))

    def test_simulated_screwing_log_flags_slips(self, tmp_path, capsys):
        scen = tmp_path / "screw.yaml"
        scen.write_text("direction: screwing\nduration: 40.0\nseed: 3\n")
        log = tmp_path / "screw.csv"
        run_cli("simulate", scen, "--out", log,
                "--report", tmp_path / "r.yaml")
        rep = tmp_path / "an.yaml"
        assert run_cli("analyze", log, "--report", rep) == 0
        report = yaml.safe_load(rep.read_text())
        assert report["slip_events"] >= 1


class TestCompare:
    def make_group(self, directory, nus):
        directory.mkdir()
        for i, nu in enumerate(nus):
            write_line_log(directory / f"run{i}.csv", nu=nu, n=400)

    def test_identical_groups(self, tmp_path, capsys):
        self.make_group(tmp_path / "a", [100.0, 110.0, 120.0])
        self.make_group(tmp_path / "b", [100.0, 110.0, 120.0])
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["p"] == pytest.approx(1.0, abs=0.05)

    def test_small_groups_use_exact_method(self, tmp_path, capsys):
        self.make_group(tmp_path / "a", [95.0, 100.0, 105.0])
        self.make_group(tmp_path / "b", [50.0, 55.0, 60.0])
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["method"] == "exact"
        assert report["group_a"]["median"] > report["group_b"]["median"]

    def test_simulated_hex_vs_phillips(self, tmp_path, capsys):
        # phillips needs more force per torque than internal hex
        for head, name in (("phillips", "a"), ("internal_hex", "b")):
            d = tmp_path / name
            d.mkdir()
            scen = tmp_path / f"{name}.yaml"
            scen.write_text(
                f"direction: screwing\nduration: 40.0\nseed: 1\n"
                f"screw: {{head_type: {head}}}\n")
            for seed in range(4):
                run_cli("simulate", scen, "--seed", seed,
                        "--out", d / f"{seed}.csv",
                        "--report", tmp_path / "r.yaml")
        capsys.readouterr()  # drop simulate status lines
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["group_a"]["median"] > report["group_b"]["median"]

    def test_empty_directory_rejected(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        self.make_group(tmp_path / "b", [100.0])
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 1


class TestCalibrate:
    def test_two_exact_points(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("pot_reading,ref_force\n0,0\n1,5\n")
        assert run_cli("calibrate", path) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["gain"] == pytest.approx(5.0)
        assert report["residual_rms"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_file_matches_normal_equations(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 10, 50)
        y = 4.2 * x + 0.3 + rng.normal(0, 0.1, 50)
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(f"{float(a)!r},{float(b)!r}"
                                  for a, b in zip(x, y)))
        assert run_cli("calibrate", path) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        n = len(x)
        sx, sy = x.sum(), y.sum()
        gain = (n * (x * y).sum() - sx * sy) / (n * (x * x).sum() - sx * sx)
        assert report["gain"] == pytest.approx(gain, rel=1e-10)

    def test_constant_readings_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("1.0,2.0\n1.0,3.0\n1.0,4.0\n")
        assert run_cli("calibrate", path) == 1

    @pytest.mark.parametrize("text, line", [
        ("nan,1\n1,2\n2,3\n", 1),
        ("pot_reading,ref_force\n0,0\n1,inf\n2,3\n", 3),
        ("0,0\n1,2\n2,3\n-inf,4\n", 4),
    ], ids=["nan_first_row", "inf_after_header", "minus_inf_last_row"])
    def test_non_finite_pair_cites_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        assert run_cli("calibrate", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: non-finite pair")
        assert err.count("\n") == 1

    def test_fit_near_float_limit_rejected(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("1e308,1e308\n-1e308,-1e308\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("calibrate", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: calibration fit is degenerate")
        assert captured.err.count("\n") == 1


def test_no_command_loads_scipy(tmp_path):
    """The package runs on numpy alone; scipy is a test-only reference."""
    src = Path(cli.__file__).resolve().parents[1]
    scenarios = src.parent / "scenarios"
    code = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        from screwbench import cli

        tmp = Path({str(tmp_path)!r})
        for group, name in (("a", "screw_phillips_plastic"),
                            ("b", "unscrew_phillips_plastic")):
            (tmp / group).mkdir()
            for seed in (0, 1):
                assert cli.main([
                    "simulate", name, "--seed", str(seed),
                    "--scenario-dir", {str(scenarios)!r},
                    "--out", str(tmp / group / f"{{seed}}.csv"),
                    "--report", str(tmp / "r.yaml")]) == 0
        assert cli.main(["compare", str(tmp / "a"), str(tmp / "b")]) == 0
        loaded = [k for k in sys.modules if k.startswith("scipy")]
        assert not loaded, loaded
        assert cli.main(["analyze", str(tmp / "a" / "0.csv")]) == 0
        (tmp / "pairs.csv").write_text("0,0\\n1,5\\n2,9\\n")
        assert cli.main(["calibrate", str(tmp / "pairs.csv")]) == 0
        loaded = [k for k in sys.modules if k.startswith("scipy")]
        assert not loaded, loaded
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
