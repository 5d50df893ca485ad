import codecs
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from screwbench import (analysis, cli, control, errors, logio, runner,
                        scenario)
from screwbench.errors import ScenarioError, ScrewbenchError
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

    def test_overflowing_force_gain_rejected(self, tmp_path, capsys):
        """margin * nu past the float range is refused before the run, not
        reported as `nu_applied: .inf`."""
        scen = tmp_path / "gain.yaml"
        scen.write_text("controller: {margin: 1.0e+200, nu: 1.0e+200}\n"
                        "seed: 1\nduration: 1.0\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: controller.margin: margin * nu must "
                              "be finite") and err.count("\n") == 1, err
        assert not (tmp_path / "r.yaml").exists()

    def test_zero_spring_estimate_rejected(self, tmp_path, capsys):
        """`k_spring_est` divides the measured force, so zero is refused
        before the run, not raised from inside the controller step."""
        scen = tmp_path / "spring.yaml"
        scen.write_text("controller: {k_spring_est: 0}\n"
                        "seed: 1\nduration: 5.0\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: controller.k_spring_est: must be > 0, got 0")
        assert err.count("\n") == 1, err
        assert not (tmp_path / "r.yaml").exists()

    def test_missing_seed_rejected(self, tmp_path, capsys):
        scen = tmp_path / "noseed.yaml"
        scen.write_text("direction: screwing\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_override_rejected(self, tmp_path, scenario_file,
                                             capsys):
        """`--seed` goes through the settings rule, like a `seed:` in the
        file."""
        assert run_cli("simulate", scenario_file, "--seed", -1,
                       "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert capsys.readouterr().err == (
            "error: seed: must be >= 0, got -1\n")

    @pytest.mark.parametrize("name", ["window", "theta_slip"])
    def test_camout_rule_is_not_a_setting(self, tmp_path, capsys, name):
        """The cam-out rule's window and drop fraction are fixed, so a file
        that sets either names it as an unknown field."""
        scen = tmp_path / "rule.yaml"
        scen.write_text(f"seed: 0\ncontroller: {{{name}: 10}}\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert capsys.readouterr().err == (
            f"error: controller.{name}: unknown field\n")
        assert not (tmp_path / "r.yaml").exists()

    @pytest.mark.parametrize("section, name, value", [
        ("controller", "kp", 1.0e-4), ("controller", "ki", 5.0e-3),
        ("controller", "travel_limit", 0.02),
        ("controller", "overload_torque", 0.4),
        ("controller", "free_spin_time", 2.0),
        ("screw", "nu_char", 57.0), ("screw", "thread_pitch", 0.0005),
        ("sim", "slip_sharpness", 6.0), ("sim", "slip_dwell", 0.1),
    ], ids=["kp", "ki", "travel_limit", "overload_torque", "free_spin_time",
            "nu_char", "thread_pitch", "slip_sharpness", "slip_dwell"])
    def test_controller_tuning_is_not_a_setting(self, tmp_path, capsys,
                                                section, name, value):
        """The PI gains, travel limit, overload fault and FREE spin are
        constants of `control`, and the thread pitch, the head's slippage
        ratio and the cam-out logistic's sharpness and dwell constants of
        `sim`: a file that sets one, even to its value, names it as an
        unknown field, and so does code that passes it."""
        scen = tmp_path / "tuning.yaml"
        scen.write_text(f"seed: 0\n{section}: {{{name}: {value!r}}}\n")
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert capsys.readouterr().err == (
            f"error: {section}.{name}: unknown field\n")
        assert not (tmp_path / "r.yaml").exists()
        cls = {"controller": scenario.ControllerConfig,
               "screw": scenario.ScrewSpec, "sim": scenario.SimParams}[section]
        with pytest.raises(TypeError, match=f"unknown field '{name}'"):
            cls(**{name: value})

    @pytest.mark.parametrize("text, key, line", [
        ("seed: 0\nduration: 1.0\nduration: 2.0\n", "duration", 3),
        ("seed: 0\nsim: {p_max: 0.5,\n      p_max: 0.2}\n", "p_max", 3),
        ("seed: 0\nsim: {p_max: 0.5}\nsim: {k_spring: 100.0}\n", "sim", 3),
    ], ids=["top_level_key", "key_in_section", "section"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, key, line):
        """A key given twice in one mapping is an error naming the key and
        its second line, not a silent choice of the last value."""
        scen = tmp_path / "twice.yaml"
        scen.write_text(text)
        assert run_cli("simulate", scen, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml") == 1
        assert capsys.readouterr().err == (
            f"error: {scen}: invalid YAML: duplicate key {key!r} "
            f"on line {line}\n")
        assert not (tmp_path / "o.csv").exists()
        assert not (tmp_path / "r.yaml").exists()

    def test_out_and_report_on_one_file_rejected(self, tmp_path, scenario_file,
                                                 monkeypatch, capsys):
        """The report would overwrite the log, so two spellings of one
        path are refused before anything is written."""
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", scenario_file, "--out", "both.out",
                       "--report", tmp_path / "both.out") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --out and --report name the same file: both.out\n")
        assert not (tmp_path / "both.out").exists()

    @pytest.mark.parametrize("option", ["--out", "--report"])
    def test_output_on_the_scenario_file_rejected(self, tmp_path,
                                                  monkeypatch, capsys,
                                                  option):
        """An output that resolves to the scenario file would replace it,
        so it is refused before anything is written."""
        monkeypatch.chdir(tmp_path)
        scen = tmp_path / "s.yaml"
        scen.write_text(SCENARIO_TEXT)
        other = {"--out": ["--report", "r.yaml"],
                 "--report": ["--out", "o.csv"]}[option]
        assert run_cli("simulate", "s.yaml", option, scen, *other) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {option} names the scenario file: s.yaml\n")
        assert scen.read_bytes() == SCENARIO_TEXT.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["s.yaml"]

    @pytest.mark.parametrize("case", ["report_on_scenario", "out_on_scenario",
                                      "out_on_report"])
    def test_hard_linked_output_rejected(self, tmp_path, monkeypatch, capsys,
                                         case):
        """Files are compared by identity, so an output that is a hard
        link to the scenario file or to the other output is refused before
        anything is written."""
        monkeypatch.chdir(tmp_path)
        scen = tmp_path / "s.yaml"
        scen.write_text(SCENARIO_TEXT)
        os.link(scen, tmp_path / "h.yaml")
        (tmp_path / "o.csv").write_text("log\n")
        os.link(tmp_path / "o.csv", tmp_path / "l.csv")
        argv, err = {
            "report_on_scenario": (["--out", "new.csv", "--report", "h.yaml"],
                                   "--report names the scenario file: s.yaml"),
            "out_on_scenario": (["--out", "h.yaml", "--report", "new.yaml"],
                                "--out names the scenario file: s.yaml"),
            "out_on_report": (["--out", "o.csv", "--report", "l.csv"],
                              "--out and --report name the same file: o.csv"),
        }[case]
        assert run_cli("simulate", "s.yaml", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
        assert scen.read_bytes() == SCENARIO_TEXT.encode()
        assert (tmp_path / "o.csv").read_text() == "log\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "h.yaml", "l.csv", "o.csv", "s.yaml"]

    def test_unwritable_report_leaves_no_log(self, tmp_path, scenario_file,
                                             monkeypatch, capsys):
        """A report that cannot be written fails the run, and the log
        written before it is removed: a failed run leaves no file."""
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", scenario_file, "--out", "ok.csv",
                       "--report", Path("missing", "r.yaml")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write missing/r.yaml: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "ok.csv").exists()

    def test_unwritable_report_keeps_a_linked_log(self, tmp_path,
                                                  scenario_file, capsys):
        """A log written through a link, as to /dev/stdout, is not a file
        the run made, so a failed report removes neither the link nor its
        target."""
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("")
        link.symlink_to(target)
        assert run_cli("simulate", scenario_file, "--out", link,
                       "--report", tmp_path / "missing" / "r.yaml") == 1
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert link.is_symlink() and target.read_text().startswith("t_s,")

    @pytest.mark.parametrize("text, constants, rows", [
        ("seed: 0\nduration: 2.0\ndirection: screwing\n"
         "sim: {force_noise_std: 1.0e+9}\n"
         "controller: {k_spring_est: 1.0e-300}\n", {}, 2),
        ("seed: 1\nduration: 2.0\nsim: {k_spring: 1.0e+300}\n",
         {"APPROACH_SPEED": 1.0e+300}, 1),
        ("seed: 1\nduration: 1.0\nsim: {force_noise_std: 1.0e+308}\n", {},
         0),
        ("seed: 1\nduration: 1.0\ncontact_z: -1.0e+300\n"
         "sim: {k_spring: 1.0e+300}\n", {}, 0),
    ], ids=["carriage_command_overflows", "world_force_overflows",
            "first_sample_overflows", "first_contact_force_overflows"])
    def test_overflowing_run_ends_in_fault(self, tmp_path, monkeypatch, text,
                                           constants, rows):
        """Settings that load but overflow the carriage command or the
        sensed force end the run in `fault`, with the finite samples before
        it in the log and no inf in the report. A run whose first sample
        overflows records none and reports its peak torque and final force
        as null. `constants` replaces `control` constants for the run."""
        for name, value in constants.items():
            monkeypatch.setattr(control, name, value)
        scen, out, rep = (tmp_path / name for name in
                          ("s.yaml", "o.csv", "r.yaml"))
        scen.write_text(text)
        assert run_cli("simulate", scen, "--out", out, "--report", rep) == 0
        report = yaml.safe_load(rep.read_text())
        assert report["outcome"] == "fault"
        lines = out.read_text().splitlines()
        assert len(lines) == rows + 1
        if rows:
            assert len(logio.read_log(out).times()) == rows
        else:
            assert report["peak_torque"] is report["final_force"] is None
        values = [v for v in report.values() if v is not None]
        values += [float(v) for line in lines[1:] for v in line.split(",")]
        assert all(math.isfinite(v) for v in values
                   if not isinstance(v, str)), report


# Magnitudes a scenario field is set to: zero, the extreme finite ones
# (1e-300 and 1e300 found the overflowing runs) and plausible ones.
_MAGNITUDES = [0, 1e-300, 1e-9, 1e-3, 0.5, 1, 3, 1e3, 1e9, 1e300]


def _number_fields(cls):
    return sorted(f.name for f in dataclasses.fields(cls)
                  if f.type in (float, int))


_run_mappings = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32),
    "duration": st.sampled_from([0.01, 0.5, 2.0]),
    "direction": st.sampled_from(["screwing", "unscrewing"]),
    **{section: st.dictionaries(st.sampled_from(_number_fields(cls)),
                                st.sampled_from(_MAGNITUDES), max_size=4)
       for section, cls in (("screw", scenario.ScrewSpec),
                            ("substrate", scenario.SubstrateSpec),
                            ("sim", scenario.SimParams),
                            ("controller", scenario.ControllerConfig))},
}, optional={"contact_z": st.sampled_from(_MAGNITUDES)})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_run_mappings)
def test_any_scenario_that_loads_runs_cleanly(tmp_path, data):
    """A scenario that loads runs to `done`, `fault` or `timeout`, with
    every number of its report finite and a log that `read_log` reads."""
    try:
        scen = scenario.scenario_from_dict(data)
    except ScenarioError:
        return
    result = runner.run_scenario(scen)
    report = result.report(scen)
    assert report["outcome"] in ("done", "fault", "timeout")
    numbers = [v for k, v in report.items()
               if k not in ("outcome", "direction")]
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in numbers), report
    log = tmp_path / "run.csv"
    logio.write_log(log, result.t, result.fz, result.mz)
    assert len(logio.read_log(log).times()) == len(result.t)


@pytest.fixture
def no_line_scan(monkeypatch):
    """Make the line scan fail, so a read that succeeds took the fast
    path."""
    def line_scan(path):
        raise AssertionError(f"line scan used for {path}")
    monkeypatch.setattr(logio, "_read_log_lines", line_scan)


def columns(series):
    return np.stack([series.times(), series.channel("fz"),
                     series.channel("mz")]).tobytes()


def reference_read_log(path):
    """The line-by-line parser `read_log` falls back to, as a copy: every
    log it accepts must read to the same bits, and every log it rejects
    must fail with the same error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScrewbenchError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != logio.LOG_HEADER:
        raise ScrewbenchError(
            f"{path}:1: expected header {logio.LOG_HEADER!r}")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ScrewbenchError(
                f"{path}:{lineno}: expected 3 comma-separated values")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError:
            raise ScrewbenchError(
                f"{path}:{lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise ScrewbenchError(
                f"{path}:{lineno}: non-finite value in {line!r}")
        samples.append(row)
    if not samples:
        raise ScrewbenchError(f"{path}: log contains no samples")
    try:
        return analysis.FtSeries(*zip(*samples))
    except ValueError as exc:
        raise ScrewbenchError(f"{path}: {exc}") from exc


def read_outcome(read, path):
    try:
        return columns(read(path))
    except ScrewbenchError as exc:
        return type(exc), str(exc)


# The bytes `write_log` emits plus the ones it never does: line breaks that
# `str.splitlines` honours and loadtxt may not, blanks, `_` (which `float`
# accepts between digits), `nan` and `inf`.
_LOG_PIECES = (list("0123456789+-.eE,") +
               ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " ",
                "\t", "_", "nan", "inf", "\x85", "\u2028"])
_junk = st.lists(st.sampled_from(_LOG_PIECES), max_size=12).map("".join)
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -0.0, 2.2250738585072014e-308,
                     1.7976931348623157e+308, 1e-05])).map(repr)
_bad_fields = st.one_of(
    _junk, st.floats().map(repr),
    st.sampled_from(["1e999", "-1e999", "1" + "0" * 400]),  # overflow to inf
    st.sampled_from(["", "1_0", "+.5", "1.", ".e1", "1E5", "00.5", "--1"]))
_bad_lines = st.one_of(
    st.sampled_from(["", " ", "\t", " \t ", "\x0c", "0.01,1,\x0c2"]),
    st.lists(_bad_fields, min_size=2, max_size=4).map(",".join),
    st.lists(_values, min_size=2, max_size=4).map(",".join),
    _junk)
_bad_breaks = st.sampled_from(["", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                               "\x1e", "\x85", "\u2028", "\n\n", "\n \n"])
_bad_headers = st.sampled_from([" t_s,fz_n,mz_nm", "t_s,fz_n,mz_nm\r",
                                "t_s,fz_n", "time,force,torque", ""])


@st.composite
def log_files(draw):
    """A log as `write_log` writes it, 0 to 8 rows, with up to three
    damages: a field, row, line break or header replaced, or a non-UTF-8
    byte inserted. Accepted logs, rejected logs and logs the fast path
    declines all occur."""
    header = logio.LOG_HEADER
    rows = [[repr((i + 1) * 0.01), draw(_values), draw(_values)]
            for i in range(draw(st.integers(0, 8)))]
    lines = [None] * len(rows)  # a replaced row
    breaks = ["\n"] * (len(rows) + 1)
    byte_at = None
    for _ in range(draw(st.integers(0, 3))):
        damage = draw(st.sampled_from(["field", "row", "break", "header",
                                       "byte"]))
        if damage in ("field", "row") and rows:
            k = draw(st.integers(0, len(rows) - 1))
            if damage == "field":
                rows[k][draw(st.integers(0, 2))] = draw(_bad_fields)
            else:
                lines[k] = draw(_bad_lines)
        elif damage == "break":
            breaks[draw(st.integers(0, len(rows)))] = draw(_bad_breaks)
        elif damage == "header":
            header = draw(_bad_headers)
        elif damage == "byte":
            byte_at = draw(st.floats(0, 1))
    text = header + breaks[0] + "".join(
        (",".join(row) if line is None else line) + brk
        for row, line, brk in zip(rows, lines, breaks[1:]))
    data = text.encode()
    if byte_at is not None:
        at = int(byte_at * len(data))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestLogIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = [FtSample(i * 0.01, rng.uniform(0, 50),
                            rng.uniform(0, 0.4)) for i in range(200)]
        path = tmp_path / "log.csv"
        logio.write_log(path, *zip(*samples))
        series = logio.read_log(path)
        got = np.stack([series.times(), series.channel("fz"),
                        series.channel("mz")], axis=1)
        assert got.tobytes() == np.array(samples).tobytes()

    def test_simulated_log_times_are_whole_periods(self, tmp_path):
        """Row k of a simulated log, counting from 1, has the time `k / 100`
        as `repr` writes it: the clock counts whole sample periods, so no
        time carries float residue."""
        for direction in ("screwing", "unscrewing"):
            sc = scenario.default_scenario(direction, seed=0)
            path = tmp_path / f"{direction}.csv"
            result = runner.run_scenario(sc)
            logio.write_log(path, result.t, result.fz, result.mz)
            times = [row.split(",")[0]
                     for row in path.read_text().splitlines()[1:]]
            assert len(times) > 1000
            assert times == [repr(k / 100) for k in range(1, len(times) + 1)]

    def test_header_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        logio.write_log(path, [0.01], [1.0], [0.1])
        assert path.read_text().splitlines()[0] == "t_s,fz_n,mz_nm"

    def test_malformed_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,fz_n,mz_nm\n0.01,1.0,0.1\n0.02,oops,0.1\n")
        with pytest.raises(ScrewbenchError, match=re.escape(f"{path}:3: ")):
            logio.read_log(path)

    @pytest.mark.parametrize("row", ["0.02,nan,0.1", "0.02,1.0,inf",
                                     "0.02,-inf,0.1", "nan,1.0,0.1"])
    def test_non_finite_value_cites_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_s,fz_n,mz_nm\n0.01,1.0,0.1\n{row}\n")
        with pytest.raises(ScrewbenchError, match=re.escape(f"{path}:3: ")):
            logio.read_log(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,force,torque\n0.01,1.0,0.1\n")
        with pytest.raises(ScrewbenchError, match=re.escape(f"{path}:1: ")):
            logio.read_log(path)

    def test_round_trip_extreme_floats_bit_exact(self, tmp_path, no_line_scan):
        extremes = [5e-324, -0.0, 2.2250738585072014e-308,
                    1.7976931348623157e+308, 1e-05]
        samples = [FtSample((i + 1) * 0.01, v, -v)
                   for i, v in enumerate(extremes)]
        path = tmp_path / "log.csv"
        logio.write_log(path, *zip(*samples))
        # the same bytes as one `repr` f-string per `FtSample` row
        lines = [logio.LOG_HEADER] + [f"{s.t!r},{s.fz!r},{s.mz!r}"
                                      for s in samples]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert columns(logio.read_log(path)) == np.array(samples).T.tobytes()

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(log_files(), st.sampled_from(
        [b"", b"t_s,fz_n,mz_nm", b"t_s,fz_n,mz_nm\n", b"t_s,fz_n,mz_nm\n\n",
         b"t_s,fz_n,mz_nm\n0.01,1,\x0c2\n", b"t_s,fz_n,mz_nm\n0.01,1e999,1\n",
         b"t_s,fz_n,mz_nm\n0.01,1\n",
         b"t_s,fz_n,mz_nm\n0.01,1,2,3\n0.02,1,2,3\n"])))
    def test_matches_line_scan(self, tmp_path, data):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        assert read_outcome(logio.read_log, path) == \
            read_outcome(reference_read_log, path)

    def test_fast_path_reads_writer_logs(self, tmp_path, monkeypatch,
                                         no_line_scan):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import fixtures
        session = tmp_path / "session.csv"
        session.write_text(fixtures.session_log(0))
        written = tmp_path / "written.csv"
        write_line_log(written)
        for path in (session, written):
            assert columns(logio.read_log(path)) == \
                columns(reference_read_log(path))


# scenario files PyYAML refuses, each with what its one `error:` line says
# after `<path>: invalid YAML: `; an error at the end of the file cites the
# file's last line, and a control character its own line
_MALFORMED_YAML = {
    "simulate_unclosed_flow_sequence": (
        "seed: [1", "expected ',' or ']', but got '<stream end>' on line 1"),
    "simulate_tab_indent": (
        "seed: 1\nsim:\n\tk_spring: 1\n",
        "found character '\\t' that cannot start any token on line 3"),
    "simulate_unclosed_quote": (
        'seed: 1\ndirection: "screwing\n',
        "found unexpected end of stream on line 2"),
    "simulate_python_object_tag": (
        "!!python/object:os.system 1\n",
        "could not determine a constructor for the tag "
        "'tag:yaml.org,2002:python/object:os.system' on line 1"),
    "simulate_unclosed_flow_sequence_and_newline": (
        "seed: [1\n", "expected ',' or ']', but got '<stream end>' on line 1"),
    "simulate_unclosed_flow_mapping": (
        "seed: 0\nsim: {k_spring: 1\n",
        "expected ',' or '}', but got '<stream end>' on line 2"),
    "simulate_nul_on_line_1": (
        "seed: 1\x00", "unacceptable character #x0000: special characters "
        "are not allowed on line 1"),
    "simulate_bell_on_line_3": (
        "seed: 1\nduration: 5.0\ndirection: screwing\x07\n",
        "unacceptable character #x0007: special characters are not allowed "
        "on line 3"),
    "simulate_flow_sequences_4000_deep": (
        "seed: " + "[" * 4000 + "]" * 4000 + "\n",
        "flow collections nested deeper than 64 levels on line 1"),
    "simulate_flow_sequences_65_deep": (
        "seed: " + "[" * 65 + "]" * 65 + "\n",
        "flow collections nested deeper than 64 levels on line 1"),
    "simulate_flow_mappings_65_deep": (
        "seed: 1\nsim: " + "{a: " * 65 + "1" + "}" * 65 + "\n",
        "flow collections nested deeper than 64 levels on line 2"),
}


@pytest.mark.parametrize("case", ["analyze_missing_log",
                                  "analyze_not_utf8_log",
                                  "calibrate_not_utf8_pairs",
                                  "simulate_out_in_missing_dir",
                                  "simulate_deeply_nested_scenario",
                                  *_MALFORMED_YAML,
                                  "simulate_deeply_nested_block"])
def test_unreadable_file_is_one_error_line(tmp_path, scenario_file, capsys,
                                           case):
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"\xff\xfe0.01,1.0,0.1\n")
    missing = tmp_path / "missing" / "run.csv"
    nested = tmp_path / "nested.yaml"  # past the flow-nesting cap
    nested.write_text("seed: " + "[" * 600 + "]" * 600 + "\n")
    block = tmp_path / "block.yaml"  # deeper than the parser recurses
    block.write_text("seed: 1\nsim:\n" + "- " * 1000 + "1\n")
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text(_MALFORMED_YAML.get(case, ("",))[0])
    argv, named = {
        "analyze_missing_log": (["analyze", missing], missing),
        "analyze_not_utf8_log": (["analyze", not_utf8], not_utf8),
        "calibrate_not_utf8_pairs": (["calibrate", not_utf8], not_utf8),
        "simulate_out_in_missing_dir": (
            ["simulate", scenario_file, "--out", missing,
             "--report", tmp_path / "r.yaml"], missing),
        "simulate_deeply_nested_scenario": (
            ["simulate", nested, "--out", tmp_path / "o.csv",
             "--report", tmp_path / "r.yaml"], nested),
        "simulate_deeply_nested_block": (
            ["simulate", block, "--out", tmp_path / "o.csv",
             "--report", tmp_path / "r.yaml"], block),
        **dict.fromkeys(_MALFORMED_YAML, (
            ["simulate", malformed, "--out", tmp_path / "o.csv",
             "--report", tmp_path / "r.yaml"], malformed)),
    }[case]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err
    if case in _MALFORMED_YAML:
        assert err == (f"error: {malformed}: invalid YAML: "
                       f"{_MALFORMED_YAML[case][1]}\n")
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "r.yaml").exists()


def test_flow_nesting_at_the_limit_parses(tmp_path, capsys):
    """64 levels of flow nesting parse, so the error is the field's; the
    65th level is a parse error (`_MALFORMED_YAML`)."""
    path = tmp_path / "s.yaml"
    path.write_text("seed: " + "[" * 64 + "]" * 64 + "\n")
    assert run_cli("simulate", path, "--out", tmp_path / "o.csv",
                   "--report", tmp_path / "r.yaml") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed: expected an integer, got [[")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.yaml"]


@pytest.mark.parametrize("case", ["simulate_100k_item_seed",
                                  "simulate_100k_char_head_type",
                                  "analyze_200k_char_row",
                                  "calibrate_200k_char_pair",
                                  "simulate_six_100k_char_seeds",
                                  "simulate_six_lists_of_six_seeds"])
def test_refused_value_is_shown_shortened(tmp_path, capsys, case):
    """A huge refused value gives one short `error:` line, cut by `...`,
    and no output file."""
    name, text, start = {
        "simulate_100k_item_seed": (
            "s.yaml", "seed: [" + ",".join(["1"] * 100_000) + "]\n",
            "error: seed: expected an integer, got [1, 1, 1, 1, 1, 1, ...]"),
        "simulate_100k_char_head_type": (
            "s.yaml", "seed: 0\nscrew: {head_type: " + "z" * 100_000 + "}\n",
            "error: screw.head_type: expected one of phillips, internal_hex, "
            "mismatched_driver, got 'zzz"),
        "analyze_200k_char_row": (
            "log.csv", "t_s,fz_n,mz_nm\n0.01,1.0," + "x" * 200_000 + "\n",
            "error: {path}:2: non-numeric value in '0.01,1.0,xxx"),
        "calibrate_200k_char_pair": (
            "p.csv", "0,1\n2," + "y" * 200_000 + "\n",
            "error: {path}:2: non-numeric pair '2,yyy"),
        # each item is cut to 1,500 characters, so the whole text is cut too
        "simulate_six_100k_char_seeds": (
            "s.yaml", "seed: [" + ", ".join(["z" * 100_000] * 6) + "]\n",
            "error: seed: expected an integer, got ['zzz"),
        "simulate_six_lists_of_six_seeds": (
            "s.yaml", "seed: [" + ", ".join(
                ["[" + ", ".join(["z" * 100_000] * 6) + "]"] * 6) + "]\n",
            "error: seed: expected an integer, got [['zzz"),
    }[case]
    path = tmp_path / name
    path.write_text(text)
    argv = {"s.yaml": ["simulate", path, "--out", tmp_path / "o.csv",
                       "--report", tmp_path / "r.yaml"],
            "log.csv": ["analyze", path], "p.csv": ["calibrate", path]}[name]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(start.format(path=path))
    assert err.count("\n") == 1
    assert "..." in err and len(err.encode()) < 4096
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize("value", [
    "torx", "x" * 1498, "0.01,1,\x0c2", 2 ** 63, -1, 30.5, 1e308, True,
    None, Fraction(1, 2), [1], [[1, 2], ("a", "b")], list(range(6)),
    {"a": 1, "b": [2]}, scenario.ControllerConfig()],
    ids=["word", "long_string", "log_row", "large_int", "int", "float",
         "float_limit", "bool", "none", "fraction", "list", "nested",
         "six_items", "mapping", "settings"])
def test_shown_value_within_the_limits_is_its_repr(value):
    assert errors.shown(value) == repr(value)


@pytest.mark.parametrize("value, expected", [
    ("z" * 100_000, "'" + "z" * 747 + "..." + "z" * 748 + "'"),
    (10 ** 2000, "1" + "0" * 747 + "..." + "0" * 749),
    ([1] * 100_000, "[1, 1, 1, 1, 1, 1, ...]"),
    ((1,) * 7, "(1, 1, 1, 1, 1, 1, ...)"),
    ({i: i for i in range(5, 0, -1)}, "{1: 1, 2: 2, 3: 3, 4: 4, ...}"),
    ([[[[1]]]], "[[[[...]]]]"),
    ({"b": 1, "a": 2}, "{'a': 2, 'b': 1}"),
    (["z" * 100_000] * 6, "['" + "z" * 746 + "..." + "z" * 747 + "']"),
    (10 ** 5000, "<int of 16610 bits>"),
], ids=["string", "integer", "list", "tuple", "mapping", "nesting",
        "sorted_keys", "whole_text", "integer_past_the_digit_limit"])
def test_shown_value_past_the_limits_is_cut(value, expected):
    """A single value keeps 1,500 characters of its `repr`, a container six
    items (a mapping four, keys sorted) and three levels of nesting, and
    the whole text 1,500 characters. An int too long for `repr` is shown
    by its size."""
    assert errors.shown(value) == expected


@pytest.mark.parametrize("case", ["analyze_envelope_points",
                                  "analyze_min_separation",
                                  "simulate_scenario_dir",
                                  "simulate_bare_name"])
def test_no_scenario_lookup_or_envelope_size(tmp_path, scenario_file,
                                             monkeypatch, capsys, case):
    """`simulate` reads the scenario path it is given, with no directory
    search or `.yaml` suffix, and `analyze` reports its envelope on a
    fixed grid with a fixed peak filter: each of these is one `error:`
    line and exit 1."""
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "run.yaml").write_text(SCENARIO_TEXT)
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "line.csv"
    write_line_log(log)
    out = ["--out", tmp_path / "o.csv", "--report", tmp_path / "r.yaml"]
    argv = {
        "analyze_envelope_points": ["analyze", log, "--envelope-points", 5],
        "analyze_min_separation": ["analyze", log, "--min-separation", 0.5],
        "simulate_scenario_dir": ["simulate", scenario_file,
                                  "--scenario-dir", tmp_path / "scenarios",
                                  *out],
        "simulate_bare_name": ["simulate", "run", *out],
    }[case]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if case == "simulate_bare_name":
        assert captured.err.startswith("error: cannot read run: ")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("case", ["analyze_bad_row", "analyze_wrong_header",
                                  "analyze_header_only",
                                  "analyze_30ms_step",
                                  "compare_bad_row_in_group_b",
                                  "calibrate_bad_row",
                                  "calibrate_constant_readings",
                                  "calibrate_header_only"])
def test_bad_input_file_is_one_error_line_naming_it(tmp_path, capsys, case):
    """Each read failure is one `error:` line that starts with the path of
    the bad file and names it once."""
    header = "t_s,fz_n,mz_nm\n"
    after_path = {
        "analyze_bad_row": ":3: non-numeric value in '0.02,oops,0.1'",
        "analyze_wrong_header": ":1: expected header 't_s,fz_n,mz_nm'",
        "analyze_header_only": ": log contains no samples",
        "analyze_30ms_step": ": sampling must be uniform 100 Hz within 1%",
        "compare_bad_row_in_group_b": ":5: non-numeric value in '0.05,abc,1'",
        "calibrate_bad_row": ":3: non-numeric pair 'x,y'",
        "calibrate_constant_readings": ": potentiometer readings are constant",
        "calibrate_header_only": ": need at least 2 calibration pairs",
    }[case]
    texts = {
        "analyze_bad_row": header + "0.01,1.0,0.1\n0.02,oops,0.1\n",
        "analyze_wrong_header": "time,force,torque\n0.01,1.0,0.1\n",
        "analyze_header_only": header,
        "analyze_30ms_step": header + "0.03,1.0,0.1\n0.06,1.0,0.1\n",
        "calibrate_bad_row": "pot,ref\n1,2\nx,y\n",
        "calibrate_constant_readings": "0,1\n0,2\n0,3\n",
        "calibrate_header_only": "pot_reading,ref_force\n",
    }
    if case in texts:
        bad = tmp_path / "bad.csv"
        bad.write_text(texts[case])
        argv = [case.split("_")[0], bad]
    else:  # the second log of the second group has a bad fifth line
        for group, n in (("a", 2), ("b", 3)):
            (tmp_path / group).mkdir()
            for i in range(n):
                write_line_log(tmp_path / group / f"run{i}.csv", n=200)
        bad = tmp_path / "b" / "run1.csv"
        lines = bad.read_text().splitlines(keepends=True)
        lines[4] = "0.05,abc,1\n"
        bad.write_text("".join(lines))
        argv = ["compare", tmp_path / "a", tmp_path / "b"]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {bad}")
    assert err.count(str(bad)) == 1
    assert err == f"error: {bad}{after_path}\n"


@pytest.mark.parametrize("case", ["log_bad_row", "log_header_only",
                                  "log_30ms_step", "nu_constant_torque",
                                  "calibration_constant_readings",
                                  "pairs_bad_row"])
def test_bad_input_or_fit_raises_the_base_error(tmp_path, case):
    """A bad file or a fit with no finite answer raises `ScrewbenchError`
    itself, with its message."""
    path = tmp_path / "in.csv"
    header = "t_s,fz_n,mz_nm\n"
    ramp = analysis.FtSeries([k / 100 for k in range(1, 11)],
                             [float(k) for k in range(1, 11)], [0.1] * 10)
    text, call, message = {
        "log_bad_row": (header + "0.01,1.0,0.1\n0.02,oops,0.1\n",
                        logio.read_log,
                        f"{path}:3: non-numeric value in '0.02,oops,0.1'"),
        "log_header_only": (header, logio.read_log,
                            f"{path}: log contains no samples"),
        "log_30ms_step": (header + "0.03,1.0,0.1\n0.06,1.0,0.1\n",
                          logio.read_log,
                          f"{path}: sampling must be uniform 100 Hz"
                          " within 1%"),
        "nu_constant_torque": ("", lambda _: analysis.estimate_nu(ramp),
                               "torque has zero variance"),
        "calibration_constant_readings": (
            "", lambda _: analysis.calibrate_force([(1.0, 0.0), (1.0, 5.0)]),
            "potentiometer readings are constant"),
        "pairs_bad_row": ("pot_reading,ref_force\n0,0.1\n1,x\n",
                          logio.read_pairs,
                          f"{path}:3: non-numeric pair '1,x'"),
    }[case]
    path.write_text(text)
    with pytest.raises(ScrewbenchError) as info:
        call(path)
    assert type(info.value) is ScrewbenchError
    assert str(info.value) == message


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
    logio.write_log(path, t.tolist(), (nu * tau).tolist(), tau.tolist())


class TestAnalyze:
    def test_exact_line_report(self, tmp_path, capsys):
        log = tmp_path / "line.csv"
        write_line_log(log, nu=106.0)
        assert run_cli("analyze", log) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["nu"] == pytest.approx(106.0)
        assert report["r"] == pytest.approx(1.0)
        assert report["regrasp_frequency_hz"] == pytest.approx(1.3, abs=0.05)
        assert report["peak_count"] >= 3

    def test_constant_zero_log_exits_nonzero(self, tmp_path, capsys):
        log = tmp_path / "zero.csv"
        logio.write_log(log, [i * 0.01 for i in range(1, 100)],
                        [0.0] * 99, [0.0] * 99)
        assert run_cli("analyze", log) == 1
        assert "variance" in capsys.readouterr().err

    def test_torque_near_float_limit_gives_one_error_line(self, tmp_path,
                                                         capsys):
        log = tmp_path / "tiny.csv"
        logio.write_log(log, [0.0, 0.01, 0.02, 0.03], [1.0, 2.0, 3.0, 1.0],
                        [0.0, 1e-300, 2e-300, 0.0])
        assert run_cli("analyze", log) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}: force/torque fit is degenerate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("separation", [0, 1.0])
    def test_regrasp_frequency_follows_min_separation(self, tmp_path, capsys,
                                                      monkeypatch, separation):
        """The frequency is read from the peaks the report lists, which
        keep the separation that analysis.DEFAULT_SEPARATION sets."""
        monkeypatch.setattr(analysis, "DEFAULT_SEPARATION", separation)
        log = tmp_path / "line.csv"
        write_line_log(log, n=1000)
        assert run_cli("analyze", log) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["peak_count"] >= 3
        assert np.all(np.diff(report["peak_times"]) >= separation)
        assert report["regrasp_frequency_hz"] == (
            1.0 / np.median(np.diff(report["peak_times"])))

    def test_simulated_screwing_log_flags_slips(self, tmp_path, capsys):
        scen = tmp_path / "screw.yaml"
        scen.write_text("direction: screwing\nduration: 40.0\nseed: 3\n")
        log = tmp_path / "screw.csv"
        run_cli("simulate", scen, "--out", log,
                "--report", tmp_path / "r.yaml")
        capsys.readouterr()
        assert run_cli("analyze", log) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["slip_events"] >= 1

    def test_report_is_not_an_option(self, tmp_path, capsys):
        """`analyze` prints its one report; a path for it is an unknown
        option, and no file is made."""
        log = tmp_path / "line.csv"
        write_line_log(log)
        rep = tmp_path / "an.yaml"
        assert run_cli("analyze", log, "--report", rep) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not rep.exists()


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

    def test_malformed_row_names_log(self, tmp_path, capsys):
        self.make_group(tmp_path / "a", [100.0, 110.0])
        self.make_group(tmp_path / "b", [100.0, 110.0, 120.0])
        bad = tmp_path / "b" / "run1.csv"
        lines = bad.read_text().splitlines(keepends=True)
        lines[4] = "0.05,abc,1\n"
        bad.write_text("".join(lines))
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:5: non-numeric value in '0.05,abc,1'\n")

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_degenerate_fit_names_log(self, tmp_path, capsys, command):
        """Both commands fit a log through one path, which names the log
        of a failed fit."""
        self.make_group(tmp_path / "a", [100.0, 110.0])
        self.make_group(tmp_path / "b", [100.0, 110.0])
        flat = tmp_path / "b" / "run2.csv"
        logio.write_log(flat, [i * 0.01 for i in range(1, 100)],
                        [1.0] * 99, [0.1] * 99)
        argv = ([flat] if command == "analyze"
                else [tmp_path / "a", tmp_path / "b"])
        assert run_cli(command, *argv) == 1
        assert capsys.readouterr().err == (
            f"error: {flat}: torque has zero variance\n")

    def test_mismatched_driver_inverts_the_applied_order(self, tmp_path,
                                                         capsys):
        """The mismatched driver's law, 600 * tau, asks more than the
        50 N `f_max` clamp, so its analysed ratio falls below Phillips'
        (212 * tau) although its applied one is higher."""
        for head, name in (("phillips", "a"), ("mismatched_driver", "b")):
            (tmp_path / name).mkdir()
            for seed in range(8):
                sc = scenario.default_scenario(
                    "screwing", seed=seed, screw={"head_type": head})
                result = runner.run_scenario(sc)
                logio.write_log(tmp_path / name / f"{seed}.csv",
                                result.t, result.fz, result.mz)
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert (report["u"], report["method"], report["p"]) == (
            64.0, "exact", 2 / math.comb(16, 8)), (
            "every Phillips log should fit a higher ratio than every "
            "mismatched-driver log: the clamp at f_max inverts the heads' "
            "applied order")

    def test_unreadable_log_named_once(self, tmp_path, capsys):
        self.make_group(tmp_path / "a", [100.0, 110.0])
        self.make_group(tmp_path / "b", [100.0, 110.0])
        bad = tmp_path / "b" / "x.csv"
        bad.write_bytes(b"\xff\xfe")
        assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ")
        assert err.count(str(bad)) == 1


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
def test_report_emitters_agree(tmp_path, scenario_file, monkeypatch):
    """libyaml's emitter writes every report byte for byte as PyYAML's
    pure-Python one does."""
    reports = []
    format_report = logio.format_report

    def recording(data):
        reports.append(data)
        return format_report(data)

    monkeypatch.setattr(logio, "format_report", recording)
    log = tmp_path / "run.csv"
    assert run_cli("simulate", scenario_file, "--out", log,
                   "--report", tmp_path / "r.yaml") == 0
    assert run_cli("analyze", log) == 0
    for group in ("a", "b"):
        (tmp_path / group).mkdir()
        for i, nu in enumerate((100.0, 110.0, 120.0)):
            write_line_log(tmp_path / group / f"run{i}.csv", nu=nu, n=200)
    assert run_cli("compare", tmp_path / "a", tmp_path / "b") == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,0.1\n1,5\n2,9.7\n")
    assert run_cli("calibrate", pairs) == 0
    assert len(reports) == 4
    reports.append({"none": None, "nan": float("nan"), "inf": float("inf"),
                    "minus_inf": float("-inf"), "minus_zero": -0.0,
                    "tiny": 1e-300, "empty": [],
                    "nested": {"values": [None, -0.0, 1e-300], "empty": []}})
    for data in reports:
        pure = yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=True,
                         default_flow_style=False)
        assert yaml.dump(data, Dumper=yaml.CSafeDumper, sort_keys=True,
                         default_flow_style=False) == pure
        assert format_report(data) == pure


# Rows of a pairs file. Three in four are plausible readings, so that many
# drawn files fit; the rest mix any float written by repr (nan, inf,
# subnormal, near the float limit), header words, odd spellings and short
# arbitrary text.
_plausible_fields = st.one_of(st.floats(-100.0, 100.0).map(repr),
                              st.integers(-1000, 1000).map(str))
_odd_fields = st.one_of(
    _plausible_fields,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "pot_reading", "ref_force", "1e308", "-1e308",
                     "5e-324", "1_0", " 2 ", "NaN", "-inf"]),
    st.text(max_size=4))
_plausible_rows = st.tuples(_plausible_fields, _plausible_fields).map(",".join)
_odd_rows = st.one_of(st.tuples(_odd_fields, _odd_fields).map(",".join),
                      st.text(max_size=6))
_pair_lines = st.integers(0, 3).flatmap(
    lambda k: _plausible_rows if k else _odd_rows)
pairs_texts = st.lists(_pair_lines, max_size=8).map("\n".join)
# A pairs text whose first row may be a header, a header look-alike or a
# wide row, under an optional byte-order mark and blank lines.
_first_rows = st.sampled_from([
    "pot_reading,ref_force", "pot,ref", "nan,1", "1,-inf", "1e999,2",
    "pot,ref,extra", "1,2,3", "pot_reading", "1", "x,", ",", "1_0,2",
    "\ufeff", "\ufeffpot,ref", "\ufeff0,1", " 0 , 1 "])
headed_pairs_texts = st.tuples(
    st.sampled_from(["", "\ufeff", "\ufeff\ufeff", "\n", "\ufeff \n"]),
    _first_rows, st.sampled_from(["\n", "\n\n"]),
    pairs_texts).map("".join)


def reference_read_pairs(path):
    """The line loop `read_pairs` had before it shared the log scan's row
    reader, as a copy, with a leading byte-order mark removed: every pairs
    file must read to the same pairs, or fail with the same error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScrewbenchError(f"cannot read {path}: {exc}") from exc
    pairs = []
    first = True
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(),
                                  start=1):
        if not line.strip():
            continue
        header_allowed, first = first, False
        parts = line.split(",")
        if len(parts) != 2:
            raise ScrewbenchError(
                f"{path}:{lineno}: expected 2 comma-separated values")
        try:
            pair = (float(parts[0]), float(parts[1]))
        except ValueError:
            if header_allowed:
                continue  # header row
            raise ScrewbenchError(
                f"{path}:{lineno}: non-numeric pair {line!r}") from None
        if not all(map(math.isfinite, pair)):
            raise ScrewbenchError(
                f"{path}:{lineno}: non-finite pair {line!r}")
        pairs.append(pair)
    return pairs


def pairs_outcome(read, path):
    try:
        return read(path)
    except ScrewbenchError as exc:
        return type(exc), str(exc)


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

    def test_header_after_blank_line(self, tmp_path, capsys):
        """The first non-blank row may be a header, wherever it is."""
        path = tmp_path / "p.csv"
        path.write_text("\npot,ref\n1,2\n2,4\n3,6.1\n")
        assert run_cli("calibrate", path) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["gain"] == pytest.approx(2.05)
        assert report["n"] == 3

    def test_second_non_numeric_row_cites_line(self, tmp_path, capsys):
        path = tmp_path / "p3.csv"
        path.write_text("\npot,ref\nx,y\n1,2\n")
        assert run_cli("calibrate", path) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: non-numeric pair 'x,y'\n")

    def test_fit_near_float_limit_rejected(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("1e308,1e308\n-1e308,-1e308\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("calibrate", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {path}: calibration fit is degenerate")
        assert captured.err.count("\n") == 1

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs_texts)
    def test_any_pairs_text_fits_or_fails_with_one_error(
            self, tmp_path, capsys, text):
        """Finite gain, offset and residual on exit 0; otherwise exit 1
        with one `error:` line and nothing on stdout."""
        path = tmp_path / "pairs.csv"
        path.write_text(text, encoding="utf-8")
        code = run_cli("calibrate", path)
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
            report = yaml.safe_load(captured.out)
            for key in ("gain", "offset", "residual_rms"):
                assert isinstance(report[key], float), key
                assert math.isfinite(report[key]), key
            assert not re.search("nan|inf", captured.out, re.IGNORECASE)
        else:
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(pairs_texts, headed_pairs_texts))
    def test_matches_reference_reader(self, tmp_path, text):
        """Only the first non-blank row may be a header, and only if it is
        two fields that are not both numbers: `nan,1` there is a non-finite
        pair and `1,2,3` a width error."""
        path = tmp_path / "pairs.csv"
        path.write_text(text, encoding="utf-8")
        assert pairs_outcome(logio.read_pairs, path) == \
            pairs_outcome(reference_read_pairs, path)

    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path,
                                                          capsys):
        """A spreadsheet's "CSV UTF-8" export starts with U+FEFF; the file
        reads as the same file without it, not as one with a header."""
        reports = []
        for name, mark in (("plain.csv", b""), ("marked.csv", codecs.BOM_UTF8)):
            path = tmp_path / name
            path.write_bytes(mark + b"0,1\n1,3\n2,5\n")
            assert run_cli("calibrate", path) == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]
        assert yaml.safe_load(reports[1].out)["n"] == 3


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """One valid input of each kind, a path that does not exist, and the
    files `simulate` writes."""
    root = tmp_path_factory.mktemp("argv")
    (root / "scenario.yaml").write_text(
        "direction: screwing\nduration: 3.0\nseed: 7\n")
    write_line_log(root / "run.csv")
    (root / "group").mkdir()
    for i, nu in enumerate((100.0, 110.0, 120.0)):
        write_line_log(root / "group" / f"run{i}.csv", nu=nu, n=200)
    (root / "pairs.csv").write_text("pot_reading,ref_force\n0,0.1\n1,5\n")
    return {"scenario": root / "scenario.yaml", "log": root / "run.csv",
            "group": root / "group", "pairs": root / "pairs.csv",
            "missing": root / "missing", "out": root / "out.csv",
            "report": root / "out.yaml"}


# Each subcommand with the kinds of its positional operands, and its
# options. An argv draws mostly the subcommand's own options, valid
# operands three times in four, and each option value from one list.
_OPERANDS = {"simulate": ("scenario",), "analyze": ("log",),
             "compare": ("group", "group"), "calibrate": ("pairs",)}
_OWN_OPTIONS = {"simulate": ["--seed"], "analyze": [], "compare": [],
                "calibrate": []}
# foreign to every subcommand as well: the unknown-option path
_OPTIONS = ["--seed", "--min-separation", "--envelope-points",
            "--scenario-dir"]
_OPTION_VALUES = ["-1", "0", "2", "50", "1e308", "nan", "inf"]


@st.composite
def argv_draws(draw):
    command = draw(st.sampled_from(sorted(_OPERANDS)))
    operands = [draw(st.sampled_from([kind] * 3 + ["missing"]))
                for kind in _OPERANDS[command]]
    flags = st.sampled_from(_OWN_OPTIONS[command] * 6 + _OPTIONS)
    options = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        options += [draw(flags), draw(st.sampled_from(_OPTION_VALUES))]
    return command, operands, options


def floats_in(data):
    """Every float in a parsed YAML report, nested lists and maps
    included."""
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        for item in data:
            yield from floats_in(item)
    elif isinstance(data, float):
        yield data


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv_draws())
def test_main_exits_cleanly_on_any_argv(argv_files, capsys, draw):
    """Any argv from the grammar exits 0 with finite results, or exits 1
    with one `error:` line; `main` never raises."""
    command, operands, options = draw
    argv = [command] + [str(argv_files[kind]) for kind in operands]
    if command == "simulate":
        argv += ["--out", str(argv_files["out"]),
                 "--report", str(argv_files["report"])]
    argv += options
    code = cli.main(argv)
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        text = (argv_files["report"].read_text() if command == "simulate"
                else captured.out)
        values = list(floats_in(yaml.safe_load(text)))
        assert values and all(map(math.isfinite, values)), text
    else:
        assert code == 1, argv
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1, captured.err


def test_no_command_loads_scipy(tmp_path):
    """The package runs on numpy alone; scipy is a test-only reference.
    Importing the cli and running the closed loop load neither numpy nor
    YAML nor the analysis pipeline nor log I/O, and `simulate` loads no
    numpy; `compare`, `analyze` and `calibrate` load numpy where they use
    it."""
    src = Path(cli.__file__).resolve().parents[1]
    scenarios = src.parent / "scenarios"
    code = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        from screwbench import cli

        def unused_loaded():
            return [k for k in ("numpy", "yaml", "screwbench.analysis",
                                "screwbench.logio") if k in sys.modules]

        assert not unused_loaded(), unused_loaded()
        from screwbench import runner, scenario
        runner.run_scenario(scenario.default_scenario("screwing", seed=0))
        assert not unused_loaded(), unused_loaded()

        tmp = Path({str(tmp_path)!r})
        scenarios = Path({str(scenarios)!r})
        for group, name in (("a", "screw_phillips_plastic.yaml"),
                            ("b", "unscrew_phillips_plastic.yaml")):
            (tmp / group).mkdir()
            for seed in (0, 1):
                assert cli.main([
                    "simulate", str(scenarios / name), "--seed", str(seed),
                    "--out", str(tmp / group / f"{{seed}}.csv"),
                    "--report", str(tmp / "r.yaml")]) == 0
        assert "numpy" not in sys.modules
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


def test_building_a_scenario_loads_no_model_controller_or_argparse():
    """The run settings live in `scenario`: importing the cli and building
    a scenario load neither the model (`sim`), the controller (`control`),
    the closed loop (`runner`), `argparse` nor `numbers`; a run still works
    after. Importing the cli, which is all the set-up of the `simulate`,
    `analyze` and `compare` benchmarks, loads no module outside the package
    beyond the ones its own import lines name."""
    src = Path(cli.__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import __future__, pathlib, sys, typing  # named by cli's imports
        before = set(sys.modules)
        import screwbench.cli
        added = sorted(k for k in set(sys.modules) - before
                       if k.partition(".")[0] != "screwbench")
        assert not added, added
        from screwbench import scenario

        scen = scenario.default_scenario("screwing")
        unused = ("screwbench.sim", "screwbench.control",
                  "screwbench.runner", "argparse", "numbers")
        loaded = [k for k in unused if k in sys.modules]
        assert not loaded, loaded
        from screwbench import runner
        assert runner.run_scenario(scen).outcome.value == "done"
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_compare_and_analyze_load_no_closed_loop(tmp_path):
    """Only `simulate` runs the closed loop: in a fresh process, importing
    the cli loads only `errors`, and running `compare`, `calibrate` or
    `analyze` loads neither `runner`, `sim`, `control` nor the run settings
    (`scenario`); `simulate` still works after them. `cli.load_scenario` is
    the scenario loader, and no other missing name resolves."""
    for group, nus in (("a", (95.0, 100.0)), ("b", (50.0, 55.0))):
        (tmp_path / group).mkdir()
        for i, nu in enumerate(nus):
            write_line_log(tmp_path / group / f"{i}.csv", nu=nu, n=400)
    (tmp_path / "s.yaml").write_text(SCENARIO_TEXT)
    (tmp_path / "pairs.csv").write_text("pot,ref\n0,0\n1,5\n2,9\n")
    src = Path(cli.__file__).resolve().parents[1]
    code = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        from screwbench import cli

        def loaded(*names):
            return [k for k in names if k in sys.modules]

        own = sorted(k for k in sys.modules if k.startswith("screwbench"))
        assert own == ["screwbench", "screwbench.cli",
                       "screwbench.errors"], own
        closed_loop = ("screwbench.runner", "screwbench.control")
        unused = (*closed_loop, "screwbench.scenario", "screwbench.sim")
        tmp = Path({str(tmp_path)!r})
        assert cli.main(["compare", str(tmp / "a"), str(tmp / "b")]) == 0
        assert not loaded(*unused), loaded(*unused)
        assert cli.main(["calibrate", str(tmp / "pairs.csv")]) == 0
        assert not loaded(*unused), loaded(*unused)
        assert cli.main(["analyze", str(tmp / "a" / "0.csv")]) == 0
        own = sorted(k for k in sys.modules if k.startswith("screwbench"))
        assert own == ["screwbench", "screwbench.analysis", "screwbench.cli",
                       "screwbench.errors", "screwbench.logio",
                       "screwbench.sensor"], own
        from screwbench import scenario
        assert cli.load_scenario is scenario.load_scenario
        try:
            cli.ControllerConfig
        except AttributeError:
            pass
        else:
            raise AssertionError("cli.ControllerConfig resolved")
        assert cli.main(["simulate", str(tmp / "s.yaml"),
                         "--out", str(tmp / "o.csv"),
                         "--report", str(tmp / "r.yaml")]) == 0
        assert loaded(*closed_loop) == list(closed_loop)
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_exit_status(tmp_path, capsys):
    """`python -m screwbench.cli` exits with `main`'s status: 0 with the
    report on stdout, 1 with one `error:` line on stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    log = tmp_path / "line.csv"
    write_line_log(log)
    assert run_cli("analyze", log) == 0
    printed = capsys.readouterr().out

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "screwbench.cli", *map(str, argv)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)

    ok = run("analyze", log)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == printed != ""
    bad = run("analyze", tmp_path / "missing.csv")
    assert (bad.returncode, bad.stdout) == (1, "")
    assert len(bad.stderr.splitlines()) == 1
    assert bad.stderr.startswith("error: ")
