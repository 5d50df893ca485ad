"""The four benchmark workloads: their inputs, one operation, and the checks
on its output.

Each workload builds a list of operation specs from its fixture manifest and
the workload seed. A pass runs every spec once, in order. `run` is the timed
call into screwbench; `check` verifies its output with the benchmark's own
code (it calls nothing in screwbench, so checks never show up in a trace) and
returns a digest of the output for the determinism checks.

Only the standard library is imported at module level, so that importing
this module before timing `setup_s` moves no import cost out of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

CAMPAIGN_RUNS = 100
CAMPAIGN_SEATED_MIN = 95  # acceptance test 2: runs seated at <= 0.4 N·m
OVERLOAD_TORQUE = 0.4  # N·m
MIX_SEEDS_PER_KIND = 10
LOG_HEADER = "t_s,fz_n,mz_nm"


@dataclass
class Checked:
    ok: bool
    digest: bytes
    samples: int  # simulated steps, or log samples read
    counts: dict = field(default_factory=dict)
    note: str = ""


def failed_check(note: str) -> Checked:
    return Checked(ok=False, digest=b"", samples=0, note=note)


def _cli(argv: list) -> tuple[int, str]:
    from screwbench import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _top_level_scalars(text: str) -> dict:
    """`key: value` lines of a flat YAML report, as strings."""
    return dict(re.findall(r"^(\w+): (.+)$", text, flags=re.MULTILINE))


class Workload:
    name = ""
    trace_passes = 1  # passes timed with the tracer on

    def check_pass(self, checked: list) -> tuple[bool, str]:
        """Checks over a whole pass; one op's checks are in `check`."""
        return True, ""


class ScrewCampaign(Workload):
    """100 default screwing scenarios through `runner.run_scenario`."""

    name = "screw_campaign"

    def specs(self, manifest: dict, seed: int) -> list:
        from screwbench import scenario
        base = seed * CAMPAIGN_RUNS
        return [scenario.default_scenario("screwing", seed=base + i)
                for i in range(CAMPAIGN_RUNS)]

    def run(self, spec):
        from screwbench import runner
        return runner.run_scenario(spec)

    def check(self, spec, result) -> Checked:
        import numpy as np
        outcome = result.outcome.value
        samples = np.array([(s.t, s.fz, s.mz) for s in result.samples])
        digest = hashlib.sha256(
            f"{outcome}|{result.slip_times!r}|".encode()
            + samples.tobytes()).digest()
        seated = bool(result.world.seated
                      and result.peak_torque <= OVERLOAD_TORQUE)
        return Checked(ok=outcome == "done", digest=digest,
                       samples=len(result.samples),
                       counts={"steps": len(result.samples),
                               "slips": len(result.slip_times),
                               "seated": int(seated)},
                       note="" if outcome == "done" else f"outcome {outcome}")

    def check_pass(self, checked: list) -> tuple[bool, str]:
        seated = sum(c.counts.get("seated", 0) for c in checked)
        ok = seated >= CAMPAIGN_SEATED_MIN
        return ok, (f"{seated}/{len(checked)} seated at <= "
                    f"{OVERLOAD_TORQUE} N·m")


def read_log_back(path: Path) -> int:
    """Rows of a CSV log, checked with the benchmark's own parser: header,
    three finite values per row and strictly increasing time."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise ValueError(f"{path}: bad header")
    prev = -math.inf
    for line in lines[1:]:
        t, fz, mz = (float(v) for v in line.split(","))
        if not (math.isfinite(fz) and math.isfinite(mz) and t > prev):
            raise ValueError(f"{path}: bad row {line!r}")
        prev = t
    return len(lines) - 1


class SimulateMix(Workload):
    """`screwbench simulate` over six scenario kinds, 10 seeds each."""

    name = "simulate_mix"

    def specs(self, manifest: dict, seed: int) -> list:
        out_dir = Path(manifest["dir"]) / "out"
        out_dir.mkdir(exist_ok=True)
        specs = []
        for j in range(MIX_SEEDS_PER_KIND):  # kinds interleaved
            for k, path in enumerate(manifest["scenarios"]):
                log, rep = out_dir / f"{k}.csv", out_dir / f"{k}.yaml"
                specs.append((["simulate", path,
                               "--seed", str(seed * MIX_SEEDS_PER_KIND + j),
                               "--out", str(log), "--report", str(rep)],
                              log, rep))
        return specs

    def run(self, spec):
        return _cli(spec[0])

    def check(self, spec, output) -> Checked:
        code, _ = output
        if code != 0:
            return failed_check(f"exit {code}")
        _, log, rep = spec
        try:
            rows = read_log_back(log)
        except ValueError as exc:
            return failed_check(str(exc))
        report = rep.read_bytes()
        fields = _top_level_scalars(report.decode())
        if fields.get("outcome") not in ("done", "fault", "timeout"):
            return failed_check(f"report outcome {fields.get('outcome')!r}")
        digest = hashlib.sha256(log.read_bytes() + b"\0" + report).digest()
        return Checked(ok=True, digest=digest, samples=rows,
                       counts={"steps": rows,
                               "slips": int(fields.get("slip_events", 0))})


class AnalyzeSession(Workload):
    """`screwbench analyze` on one 40,000-sample session log."""

    name = "analyze_session"
    trace_passes = 3

    def specs(self, manifest: dict, seed: int) -> list:
        return [(["analyze", manifest["log"]], manifest["samples"])]

    def run(self, spec):
        return _cli(spec[0])

    def check(self, spec, output) -> Checked:
        code, text = output
        if code != 0:
            return failed_check(f"exit {code}")
        fields = _top_level_scalars(text)
        n = int(fields.get("n", -1))
        nu = float(fields.get("nu", "nan"))
        peaks = int(fields.get("peak_count", 0))
        if n != spec[1] or not math.isfinite(nu) or peaks <= 0:
            return failed_check(f"n={n} (wrote {spec[1]}), nu={nu}, "
                           f"peak_count={peaks}")
        return Checked(ok=True, digest=hashlib.sha256(text.encode()).digest(),
                       samples=n, counts={"peaks": peaks})


class CompareGroups(Workload):
    """`screwbench compare` of 8 logs against 32 logs."""

    name = "compare_groups"
    trace_passes = 8

    def specs(self, manifest: dict, seed: int) -> list:
        return [(["compare", *manifest["groups"]], manifest["samples"])]

    def run(self, spec):
        return _cli(spec[0])

    def check(self, spec, output) -> Checked:
        import yaml
        code, text = output
        if code != 0:
            return failed_check(f"exit {code}")
        report = yaml.safe_load(text)
        a, b = report["group_a"], report["group_b"]
        ok = (report["method"] == "exact" and a["n"] == 8 and b["n"] == 32
              and a["median"] < b["median"])  # group a has the lower ratio
        if not ok:
            return failed_check(f"method={report['method']}, medians "
                           f"{a['median']} vs {b['median']}")
        return Checked(ok=True, digest=hashlib.sha256(text.encode()).digest(),
                       samples=spec[1])


WORKLOADS = {w.name: w for w in (ScrewCampaign(), SimulateMix(),
                                 AnalyzeSession(), CompareGroups())}
