"""Command-line entry point.

Subcommands:
  simulate   run a scenario closed-loop, write a 100 Hz CSV log + report
  analyze    force/torque ratio, regrasp frequency, peaks and envelope of a log
  compare    Mann-Whitney U test of per-log ratios between two directories
  calibrate  least-squares force calibration from (pot_reading, ref_force) CSV

Each command returns the text it prints or raises `ScrewbenchError`, and
`main` alone writes: that text on stdout and exit 0, or one `error:` line on
stderr and exit 1, for bad input, arguments included; a fault or timeout is
recorded in the report. The `error:` line and `simulate`'s status line
escape each character that is not `str.isprintable()` (a line break in a
path or key as `\\n`, U+2028 as `\\u2028`), so each stays one line.

`simulate` writes its log and report to the two paths it is given, which
must name two different files, neither of them the scenario file, and
removes the log file if the report cannot be written; `analyze`,
`compare` and `calibrate` return their one report. The file formats live
in `logio` and the fits in `analysis`.
Imports at the point of use: `import screwbench.cli` loads only the error
types (`errors`), not even `argparse`, which loads when `main` builds the
parser; each subcommand loads the rest where it uses it. Only `simulate`
loads the closed loop (`runner`, `sim`), the controller (`control`) and
the run settings (`scenario`); `analyze` reads the cam-out rule and its
defaults from `sensor`.
`cli.load_scenario` stays readable as `scenario.load_scenario`, loaded on
first access.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ScrewbenchError

if TYPE_CHECKING:
    import argparse

    import numpy as np

ENVELOPE_POINTS = 50  # envelope grid size in the `analyze` report


def __getattr__(name):
    # PEP 562: `cli.load_scenario` is the scenario loader, read from its
    # module on each access so that it loads only when asked for.
    if name == "load_scenario":
        from . import scenario
        return scenario.load_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _printable(text: str) -> str:
    """`text` with each character that is not `str.isprintable()` written
    as its escape, as `repr` writes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def cmd_simulate(args) -> str:
    import contextlib
    import dataclasses
    import os

    from . import logio, runner
    from .scenario import load_scenario

    def identity(path):
        # a file that exists is its device and inode, so that a hard link
        # to it is the same file; a file not yet made is its resolved path
        try:
            stat = os.stat(path)
        except OSError:
            return Path(path).resolve()
        return stat.st_dev, stat.st_ino

    out_id, report_id = identity(args.out), identity(args.report)
    if out_id == report_id:
        raise ScrewbenchError(
            f"--out and --report name the same file: {args.out}")
    scenario_id = identity(args.scenario)
    for option, output_id in (("--out", out_id), ("--report", report_id)):
        if output_id == scenario_id:
            raise ScrewbenchError(
                f"{option} names the scenario file: {args.scenario}")
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        # through the settings rule, like a `seed:` in the file
        scenario = dataclasses.replace(scenario, seed=args.seed)
    result = runner.run_scenario(scenario)
    logio.write_log(args.out, result.t, result.fz, result.mz)
    try:
        logio.write_text(args.report,
                         logio.format_report(result.report(scenario)))
    except ScrewbenchError:
        # a failed run leaves no log file behind; a link or a device such
        # as /dev/stdout is not the run's to remove, and a log in a
        # directory it cannot change stays, behind the report's error
        out = Path(args.out)
        if out.is_file() and not out.is_symlink():
            with contextlib.suppress(OSError):
                out.unlink()
        raise
    return _printable(f"outcome: {result.outcome.value}  "
                      f"slip_events: {len(result.slip_times)}  "
                      f"log: {args.out}  report: {args.report}") + "\n"


def _count_slip_flags(mz: np.ndarray) -> int:
    """Rising edges of the controller's cam-out rule over a torque log,
    with the `sensor` defaults."""
    from .analysis import camout_flags
    flags = camout_flags(mz)
    # flag 0 is False under the defaults, so edges start at index 1
    return int((flags[1:] & ~flags[:-1]).sum())


def cmd_analyze(args) -> str:
    from dataclasses import asdict

    import numpy as np

    from . import analysis, logio
    series = logio.read_log(args.log)
    report = asdict(_fit(args.log, analysis.estimate_nu, series))
    peaks = analysis.local_maxima(
        series, "mz",
        min_prominence=analysis.DEFAULT_PROMINENCE["mz"],
        min_separation=analysis.DEFAULT_SEPARATION)
    report["peak_count"] = len(peaks)
    report["peak_times"] = peaks.times.tolist()
    report["peak_values"] = peaks.values.tolist()
    report["regrasp_frequency_hz"] = peaks.frequency()
    if len(peaks) >= 2:
        env = analysis.fit_envelope(peaks)
        grid = np.linspace(env.t_min, env.t_max, ENVELOPE_POINTS)
        report["envelope_t"] = grid.tolist()
        report["envelope_mz"] = env(grid).tolist()
    report["slip_events"] = _count_slip_flags(series.channel("mz"))
    return logio.format_report(report)


def _fit(path, fit, data):
    """`fit(data)` of the data read from `path`, naming it on failure."""
    try:
        return fit(data)
    except ScrewbenchError as exc:
        raise ScrewbenchError(f"{path}: {exc}") from exc


def _group_nus(directory: Path) -> list:
    """Each log's nu, in file-name order."""
    from . import analysis, logio
    logs = sorted(directory.glob("*.csv"))
    if not logs:
        raise ScrewbenchError(f"no CSV logs in {directory}")
    return [_fit(log, analysis.estimate_nu, logio.read_log(log)).nu
            for log in logs]


def cmd_compare(args) -> str:
    from dataclasses import asdict

    from . import analysis, logio
    groups = {"group_a": _group_nus(Path(args.group_a)),
              "group_b": _group_nus(Path(args.group_b))}
    result = analysis.mann_whitney_u(*groups.values())
    report = {
        "u": float(result.u),
        "p": float(result.p),
        "method": result.method.value,
    }
    for label, s in analysis.summarize_conditions(groups).items():
        report[label] = {**asdict(s), "n": len(groups[label])}
    return logio.format_report(report)


def cmd_calibrate(args) -> str:
    from dataclasses import asdict

    from . import analysis, logio
    pairs = logio.read_pairs(args.pairs)
    result = _fit(args.pairs, analysis.calibrate_force, pairs)
    return logio.format_report({**asdict(result), "n": len(pairs)})


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument error is a `ScrewbenchError`, so that `main` reports
        it as one `error:` line like any other bad input."""

        def error(self, message):
            raise ScrewbenchError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="screwbench",
        description="screw fastening/unfastening simulation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario closed-loop")
    p_sim.add_argument("scenario", help="scenario file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.add_argument("--out", default="run.csv", help="output CSV log")
    p_sim.add_argument("--report", default="report.yaml",
                       help="output run report")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="analyze a CSV log")
    p_an.add_argument("log")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare",
                           help="compare nu between two log directories")
    p_cmp.add_argument("group_a")
    p_cmp.add_argument("group_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_cal = sub.add_parser("calibrate",
                           help="fit a force calibration line")
    p_cal.add_argument("pairs", help="CSV of pot_reading,ref_force pairs")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print(args.func(args), end="")
    except ScrewbenchError as exc:
        print(_printable(f"error: {exc}"), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
