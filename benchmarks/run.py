"""screwbench benchmark: run one workload (or all four) and report.

Usage, from the repository root:

    python3 benchmarks/run.py --workload screw_campaign --seed 0 \\
        --seconds 12 --trace 0

Without --workload every workload runs in turn. Each run writes its fixtures
under .bench_work/, records the machine (versions, nproc, CPU model, load
and a fixed calibration spin), then starts PROBES fresh single-threaded
Python processes one at a time. Each sets up and runs the cold first
operation; the last also runs the measured passes for --seconds. With
--trace 1 one process measures, then repeats the workload with every layer
wrapped; the run reports per-layer figures and the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import fixtures
import spans
import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBES = 5  # fresh processes per run that time set-up and the first op
RUN_BUDGET_S = 170  # a workload's processes must all end within this

# Benchmark processes run every numeric library on one thread.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# End-to-end metrics, all printed: name -> unit. BENCHMARK.json lists only
# GATED, with a bound. On a shared VM whose speed drifts by up to 1.7x over
# seconds to minutes, the time metrics spread by up to 0.6 (quartile distance
# over median) between runs, more than a bound may allow, so they are printed
# for paired comparisons but not gated.
END_TO_END = {"setup_s": "s", "first_op_s": "s", "wall_s": "s",
              "op_p50_ms": "ms", "op_p90_ms": "ms", "samples_per_s": "1/s",
              "steps_per_s": "1/s", "rss_peak_mb": "MB",
              "ops_failed_frac": "1"}
GATED = ("setup_s", "rss_peak_mb")


def per_layer_units() -> dict:
    """Per-layer metrics, as BENCHMARK.json lists them: name -> unit."""
    units = {}
    for name in spans.TRACED:
        units.update({f"{name}.calls": "count", f"{name}.self_ms": "ms",
                      f"{name}.us_per_call": "us"})
    units.update({name: "B" if name.endswith(".bytes") else "count"
                  for name in spans.COUNTS})
    units["control.camout_per_slip"] = "ratio"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.absent": "count",
                  "import.total_ms": "ms", "import.scipy_ms": "ms"})
    return units


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def calibration_spin(repeats: int = 5) -> dict:
    """Median times of a fixed pure-Python loop and a fixed numpy sort, so
    a machine running slower than usual shows beside the metrics."""
    def py_loop():
        s = 0
        for i in range(200_000):
            s += i * i
        return s

    data = np.random.default_rng(0).random(200_000)
    out = {}
    for name, fn in (("py_loop_ms", py_loop),
                     ("np_sort_ms", lambda: np.sort(data))):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workdir: Path, config: dict, tag: str, deadline: float) -> dict:
    cfg_path, out_path = workdir / f"{tag}.json", workdir / f"{tag}.out.json"
    cfg_path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path),
         str(out_path)],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out_path.exists():
        raise RuntimeError(f"{tag} process exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(out_path.read_text())


def import_times(deadline: float) -> dict:
    """Self import time in ms of all modules and of scipy's, from one fresh
    `python -X importtime -c 'import screwbench.cli'`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import screwbench.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True)
    total = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (p.strip() for p in line[12:].split("|"))
        if not self_us.isdigit():
            continue  # the column header
        total += int(self_us)
        if name.split(".")[0] == "scipy":
            scipy_us += int(self_us)
    return {"import.total_ms": total / 1e3, "import.scipy_ms": scipy_us / 1e3}


def end_to_end(children: list, failed: int, attempted: int) -> tuple:
    """Metrics from the probes and the measuring process (the last child),
    and the details printed beside them."""
    measure = children[-1]
    passes = measure["passes"]
    ops = [t for p in passes for t in p["op_s"]]
    op_time = sum(ops)
    q_tail = stats.tail_quantile(len(ops))
    metrics = {
        "setup_s": statistics.median([c["setup_s"] for c in children]),
        "first_op_s": statistics.median([c["first_op_s"] for c in children]),
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "op_p50_ms": stats.percentile(ops, 0.5) * 1e3,
        "op_p90_ms": stats.percentile(ops, q_tail) * 1e3,
        "samples_per_s": sum(p["samples"] for p in passes) / op_time,
        "steps_per_s": sum(p["steps"] for p in passes) / op_time,
        "rss_peak_mb": measure["rss_peak_mb"],
        "ops_failed_frac": failed / attempted,
    }
    details = {
        "setup_s": f"median of {len(children)} fresh processes",
        "first_op_s": f"median of {len(children)} fresh processes",
        "wall_s": f"median of {len(passes)} passes, checks excluded",
        "op_p50_ms": f"p50 of {len(ops)} ops, "
                     f"{stats.beyond(len(ops), 0.5)} beyond",
        "op_p90_ms": f"p{q_tail * 100:.1f} of {len(ops)} ops, "
                     f"{stats.beyond(len(ops), q_tail)} beyond",
        "samples_per_s": "log samples produced or read per op second",
        "steps_per_s": "simulated steps per op second",
        "rss_peak_mb": "peak RSS of the measuring process",
        "ops_failed_frac": f"{failed} of {attempted} ops, first ops included",
    }
    return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    print(f"== workload {name}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}")
    print("env: " + json.dumps(environment()))
    print("calibration: " + json.dumps(calibration_spin()))
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        manifest = fixtures.write(name, workdir, seed)
        print(f"fixtures: {manifest['files']} files, sha256 "
              f"{manifest['sha256']}, log samples {manifest['samples']}")
        config = {"workload": name, "seed": seed, "seconds": seconds,
                  "manifest": manifest, "trace": trace,
                  "spans_path": str(WORK / f"spans_{name}_{seed}.jsonl")}
        # Probes run before and after the measuring process, so that the
        # set-up times sample the machine across the whole run.
        probes = 0 if trace else PROBES - 1
        children = [run_child(workdir, dict(config, mode="probe"),
                              f"probe{i}", deadline)
                    for i in range(probes // 2)]
        measure = run_child(workdir, dict(config, mode="measure"),
                            "measure", deadline)
        children += [run_child(workdir, dict(config, mode="probe"),
                               f"probe{i}", deadline)
                     for i in range(probes // 2, probes)]
        children.append(measure)  # report() reads it last
        imports = import_times(deadline) if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(children, trace, imports)


def report(children: list, trace: bool, imports: dict) -> dict:
    measure = children[-1]
    passes = measure["passes"]
    traced = measure["trace"]["passes"] if trace else []
    attempted = len(children) + sum(len(p["op_s"]) for p in passes + traced)
    failed = (sum(not c["first_ok"] for c in children)
              + sum(p["failed"] for p in passes + traced))
    problems = [f"first op: {c['first_note']}" for c in children
                if not c["first_ok"]]
    problems += [f"pass {i}: {p['note']}" for i, p in enumerate(passes)
                 if not p["ok"] or p["failed"]]
    digests = {p["digest"] for p in passes}
    first_digests = {c["first_digest"] for c in children}
    first_digests.update(p["first_digest"] for p in passes)
    if len(digests) != 1 or len(first_digests) != 1:
        problems.append("outputs differ between repeats of the same inputs")
    for i, p in enumerate(passes):
        print(f"pass {i}: wall_s {p['wall_s']:.6g}  ops {len(p['op_s'])}  "
              f"steps {p['steps']}  slips {p['slips']}  "
              f"{p['note'] or 'checks ok'}")
    print(f"output sha256: {passes[0]['digest']}")

    if trace:
        tr = measure["trace"]
        untraced = statistics.median([p["wall_s"] for p in passes])
        traced_wall = statistics.median([p["wall_s"] for p in traced])
        metrics = dict(tr["layers"])
        metrics.update({"trace.wall_s": traced_wall,
                        "trace.untraced_wall_s": untraced,
                        "trace.overhead_s": traced_wall - untraced,
                        "trace.absent": len(tr["absent"])})
        metrics.update(imports)
        if {p["digest"] for p in traced} != digests:
            problems.append("traced outputs differ from untraced outputs")
        print(f"traced: {len(traced)} passes, {tr['spans']} spans, "
              f"absent: {', '.join(tr['absent']) or 'none'}")
        print(f"ops_failed_frac = {failed / attempted:.6g}")
        units = per_layer_units()
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit}")
    else:
        metrics, details = end_to_end(children, failed, attempted)
        for name, unit in END_TO_END.items():
            gate = "  [gated]" if name in GATED else ""
            print(f"{name} = {metrics[name]:.6g} {unit}  "
                  f"({details[name]}){gate}")
        units = {name: END_TO_END[name] for name in GATED}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u}
                        for n, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if not (SRC / "screwbench" / "cli.py").is_file():
        sys.exit(f"error: no screwbench sources at {SRC / 'screwbench'}")
    sys.exit(main())
