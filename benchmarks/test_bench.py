"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fixtures  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from screwbench import (analysis, cli, logio, runner, scenario,  # noqa: E402
                        sim)

# SHA-256 of the fixture bytes at workload seed 0; the analysis workloads
# must read the same bytes on every commit they compare.
FIXTURE_SHA256_SEED0 = {
    "analyze_session":
        "aa99b23849198f3f4ca2d607824b66be4277324c0cc6074fc40d5a2388c28a7d",
    "compare_groups":
        "a6cbfd9db4c4af199c4252abc1d87d83134b9d5e5fb61e8b54f1a862635bf5fa",
}


class FakeClock:
    """Advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# --- self time ----------------------------------------------------------

def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    inner = tracer.wrap("control.detect_camout", lambda: clock() and None)
    outer = tracer.wrap("control.update", lambda: (inner(), inner(), clock()))
    with tracer.op("op"):
        outer()
    calls, total, self_s = tracer.stats["control.detect_camout"]
    # inner: start, its own reading, end -> 2 units per call
    assert (calls, total, self_s) == (2, 4.0, 4.0)
    calls, total, self_s = tracer.stats["control.update"]
    # outer spans 2 inner calls (3 readings each) plus one reading of its own
    assert (calls, total, self_s) == (1, 8.0, 4.0)


def test_spans_kept_for_coarse_calls_and_ops_only():
    tracer = spans.Tracer(clock=FakeClock())
    fine = tracer.wrap("sim.step_world", lambda: None)
    coarse = tracer.wrap("runner.run_scenario", lambda: fine())
    with tracer.op("screw_campaign"):
        coarse()
    names = {s[2]: s for s in tracer.spans}
    assert set(names) == {"screw_campaign", "runner.run_scenario"}
    op_id = names["screw_campaign"][0]
    assert names["runner.run_scenario"][1] == op_id  # parent is the op
    assert names["screw_campaign"][1] is None
    assert tracer.stats["sim.step_world"][0] == 1


def test_layer_metrics_per_pass():
    tracer = spans.Tracer(clock=FakeClock())
    f = tracer.wrap("analysis.estimate_nu", lambda: None)
    for _ in range(4):
        f()
    m = spans.layer_metrics(tracer, passes=2)
    assert m["analysis.estimate_nu.calls"] == 2
    assert m["analysis.estimate_nu.self_ms"] == pytest.approx(2 * 1e3)
    assert m["analysis.estimate_nu.us_per_call"] == pytest.approx(1e6)
    assert m["sim.step_world.us_per_call"] == 0.0
    assert m["control.camout_per_slip"] == 0.0


# --- wrapping the real package ------------------------------------------

def test_install_wraps_module_calls_and_restores():
    originals = (sim.step_world, cli.load_scenario,
                 analysis.FtSeries.__dict__["times"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.load_scenario is not originals[1]  # `from` import copy
        result = runner.run_scenario(
            scenario.default_scenario("screwing", seed=3, duration=1.0))
    finally:
        tracer.uninstall()
    assert (sim.step_world, cli.load_scenario,
            analysis.FtSeries.__dict__["times"]) == originals
    assert tracer.absent == []
    steps = len(result.samples)
    assert tracer.stats["sim.step_world"][0] == steps
    assert tracer.stats["control.update"][0] == steps
    assert tracer.stats["runner.run_scenario"][0] == 1
    assert tracer.counts["runner.steps"] == steps
    assert tracer.counts["runner.outcome_" + result.outcome.value] == 1


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cli, "_count_slip_flags")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cli._count_slip_flags"]
    m = spans.layer_metrics(tracer, passes=1)
    assert m["cli._count_slip_flags.calls"] == 0


# --- percentile choice --------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile([7.0], 0.9) == 7.0


@pytest.mark.parametrize("n", [20, 21, 57, 99, 100, 101, 150, 1000])
def test_tail_quantile_keeps_ten_beyond(n):
    q = stats.tail_quantile(n)
    assert q <= 0.9
    assert stats.beyond(n, q) >= stats.TAIL_BEYOND
    if q < 0.9:  # the next rank up would leave fewer than ten beyond
        assert stats.beyond(n, q) == stats.TAIL_BEYOND


def test_tail_quantile_falls_back_to_median_when_short():
    assert stats.tail_quantile(11) == 0.5
    assert stats.tail_quantile(100) == 0.9


# --- fixtures -----------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_sets(tmp_path_factory):
    out = {}
    for name in FIXTURE_SHA256_SEED0:
        d = tmp_path_factory.mktemp(name)
        out[name] = fixtures.write(name, d, 0)
    return out


def test_fixture_bytes_are_pinned(fixture_sets):
    for name, manifest in fixture_sets.items():
        assert manifest["sha256"] == FIXTURE_SHA256_SEED0[name], name


def test_fixtures_depend_on_seed_only():
    assert fixtures.session_log(5) == fixtures.session_log(5)
    assert fixtures.session_log(5) != fixtures.session_log(6)


def test_session_log_reads_back(fixture_sets):
    manifest = fixture_sets["analyze_session"]
    est = analysis.estimate_nu(logio.read_log(manifest["log"]))
    assert est.n == manifest["samples"] == fixtures.SESSION_SAMPLES
    assert np.isfinite(est.nu)


def test_compare_logs_read_back_with_ordered_ratios(fixture_sets):
    manifest = fixture_sets["compare_groups"]
    medians, total = [], 0
    for group, (_, count, _) in zip(manifest["groups"],
                                    fixtures.COMPARE_GROUPS):
        logs = sorted(Path(group).glob("*.csv"))
        assert len(logs) == count
        nus = []
        for log in logs:
            est = analysis.estimate_nu(logio.read_log(log))
            total += est.n
            nus.append(est.nu)
        medians.append(np.median(nus))
    assert medians[0] < medians[1]
    assert total == manifest["samples"]


def test_scenario_fixtures_load():
    for kind in fixtures.MIX_KINDS:
        sc = scenario.scenario_from_dict(
            yaml.safe_load(fixtures.scenario_text(*kind)))
        assert (sc.direction.value, sc.screw.head_type.value,
                sc.substrate.kind.value) == kind


# --- the benchmark definition -------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == {name: run.END_TO_END[name] for name in run.GATED})
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "compare_groups",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

