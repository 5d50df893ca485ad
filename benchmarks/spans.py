"""Per-layer tracing from outside the program.

The tracer replaces screwbench functions by timing wrappers, looked up by
module attribute, and puts the originals back afterwards. A call made
through a module (`sim.step_world` from `runner`) or to a module global
(`detect_camout` from `control.update`) goes through the wrapper; names a
module imported with `from ... import` are patched in that module too.

Each call's self time is its duration minus the durations of the wrapped
calls made inside it. Per-step functions (FINE) are only aggregated into
count, total and self time; every other call also keeps a span (id, parent
id, name, start, end), and so does each benchmark operation.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time

# Wrapped functions, named "<module>.<attribute path>" under screwbench.
TRACED = (
    "sim.step_world", "sim.read_sensors",
    "control.update", "control.detect_camout", "control.detect_terminal",
    "control.pid_force_step",
    "runner.run_scenario",
    "scenario.load_scenario",
    "logio.read_log", "logio.write_log", "logio.format_report",
    "analysis.local_maxima", "analysis.regrasp_frequency",
    "analysis.fit_envelope", "analysis.FtSeries.times",
    "analysis.FtSeries.channel", "analysis.estimate_nu",
    "analysis.mann_whitney_u", "analysis.summarize_conditions",
    "cli.cmd_simulate", "cli.cmd_analyze", "cli.cmd_compare",
    "cli._count_slip_flags",
)
FINE = frozenset(("sim.step_world", "sim.read_sensors", "control.update",
                  "control.detect_camout", "control.detect_terminal",
                  "control.pid_force_step"))

# Counts taken from wrapped calls' arguments and results.
COUNTS = (
    "sim.slip_onsets", "control.camout_events", "runner.steps",
    "runner.outcome_done", "runner.outcome_fault", "runner.outcome_timeout",
    "logio.read_log.samples", "logio.read_log.bytes", "logio.write_log.bytes",
    "analysis.local_maxima.peaks_kept",
)


def _series_len(series) -> int:
    samples = getattr(series, "samples", None)
    return len(samples) if samples is not None else len(series.times())


def _count_run(counts, args, kwargs, result):
    counts["runner.steps"] += len(result.samples)
    counts["runner.outcome_" + result.outcome.value] += 1
    counts["sim.slip_onsets"] += len(result.slip_times)
    counts["control.camout_events"] += result.controller.camout_events


def _count_read(counts, args, kwargs, result):
    counts["logio.read_log.samples"] += _series_len(result)
    counts["logio.read_log.bytes"] += os.path.getsize(args[0])


def _count_write(counts, args, kwargs, result):
    counts["logio.write_log.bytes"] += os.path.getsize(args[0])


def _count_peaks(counts, args, kwargs, result):
    counts["analysis.local_maxima.peaks_kept"] += len(result)


HOOKS = {"runner.run_scenario": _count_run, "logio.read_log": _count_read,
         "logio.write_log": _count_write,
         "analysis.local_maxima": _count_peaks}


class Tracer:
    """Install with `install()`, run operations inside `op(name)`, then
    `uninstall()`; `stats[name]` is [calls, total_s, self_s]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}
        self.counts = {name: 0 for name in COUNTS}
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child s, span id, parent id] per call
        self._next_id = 0
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _open(self, keep_span: bool) -> list:
        parent = self._stack[-1][1] if self._stack else None
        if keep_span:
            frame = [0.0, self._next_id, parent]
            self._next_id += 1
        else:
            frame = [0.0, parent, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float,
               keep_span: bool) -> float:
        """Pop `frame`, charge its duration to the enclosing call and return
        its self time."""
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        if keep_span:
            self.spans.append((frame[1], frame[2], name, t0, t1))
        return dur - frame[0]

    def wrap(self, name: str, fn, hook=None):
        rec = self.stats[name]
        keep_span = name not in FINE
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = self._open(keep_span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += self._close(frame, name, t0, t1, keep_span)
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, OSError):
                    if name + ".counts" not in self.absent:
                        self.absent.append(name + ".counts")
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, name: str):
        """A root span around one benchmark operation."""
        frame = self._open(True)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, name, t0, self.clock(), True)

    def install(self, package: str = "screwbench") -> None:
        for name in TRACED:
            module_name, *path = name.split(".")
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn, HOOKS.get(name))
            if owner is module:  # also patch `from module import fn` copies
                owners = [m for key, m in list(sys.modules.items())
                          if m is not None and (key == package or
                                                key.startswith(package + "."))]
            else:
                owners = [owner]
            for o in owners:
                for attr, value in list(vars(o).items()):
                    if value is fn:
                        self._patched.append((o, attr, fn))
                        setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass figures: calls, self_ms and us_per_call (total time per
    call) per wrapped function, the counts, and camout_per_slip."""
    out = {}
    for name, (calls, total, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_ms"] = self_s * 1e3 / passes
        out[f"{name}.us_per_call"] = total * 1e6 / calls if calls else 0.0
    for name, value in tracer.counts.items():
        out[name] = value / passes
    slips = tracer.counts["sim.slip_onsets"]
    out["control.camout_per_slip"] = (
        tracer.counts["control.camout_events"] / slips if slips else 0.0)
    return out
