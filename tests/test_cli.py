import os
import subprocess
import sys
import textwrap
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


def test_simulate_and_compare_do_not_load_scipy(tmp_path):
    """Only `analyze` needs scipy; it is imported on first use."""
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
        assert "scipy" in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
