"""One fresh benchmark process: set up, run the cold first operation and,
in `measure` mode, the measured passes and the traced passes.

Usage: python3 worker.py CONFIG.json RESULT.json

Nothing but the standard library is imported before the clock for
`setup_s` starts; it covers importing `screwbench.cli` and building the
workload's inputs in memory.
"""

import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, failed_check


def run_op(wl, spec, tracer=None, clock=time.perf_counter):
    """(seconds, Checked) for one operation. An exception is a failed op.
    With a tracer, the operation is a root span; its check is not."""
    span = tracer.op(wl.name) if tracer else contextlib.nullcontext()
    t0 = clock()
    try:
        with span:
            out = wl.run(spec)
    except Exception:  # a crash in the program is a failed op, not ours
        dt = clock() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, failed_check("exception")
    dt = clock() - t0
    try:
        return dt, wl.check(spec, out)
    except Exception as exc:  # malformed output fails the op
        return dt, failed_check(f"check raised {exc!r}")


def run_pass(wl, specs, tracer=None) -> dict:
    times, failed, samples, notes = [], 0, 0, []
    digest = hashlib.sha256()
    checked = []
    for spec in specs:
        dt, c = run_op(wl, spec, tracer)
        times.append(dt)
        checked.append(c)
        digest.update(c.digest)
        samples += c.samples
        if not c.ok:
            failed += 1
            notes.append(c.note)
    pass_ok, pass_note = wl.check_pass(checked)
    return {"op_s": times, "wall_s": sum(times), "failed": failed,
            "samples": samples, "digest": digest.hexdigest(),
            "first_digest": checked[0].digest.hex(), "ok": pass_ok,
            "note": "; ".join(notes[:3] + [pass_note]).strip("; "),
            "steps": sum(c.counts.get("steps", 0) for c in checked),
            "slips": sum(c.counts.get("slips", 0) for c in checked)}


def main(config_path: str, result_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    t0 = time.perf_counter()
    import screwbench.cli  # noqa: F401  (the import setup_s times)
    wl = WORKLOADS[cfg["workload"]]
    specs = wl.specs(cfg["manifest"], cfg["seed"])
    setup_s = time.perf_counter() - t0

    first_op_s, first = run_op(wl, specs[0])
    result = {"setup_s": setup_s, "first_op_s": first_op_s,
              "first_ok": first.ok, "first_note": first.note,
              "first_digest": first.digest.hex()}

    if cfg["mode"] == "measure":
        gc.collect()
        passes, start = [], time.perf_counter()
        while not passes or time.perf_counter() - start < cfg["seconds"]:
            passes.append(run_pass(wl, specs))
        result["passes"] = passes
        if cfg["trace"]:
            result["trace"] = traced_passes(wl, specs, cfg["spans_path"])
    result["rss_peak_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


def traced_passes(wl, specs, spans_path: str) -> dict:
    """Run the workload's fixed number of traced passes; write the spans
    kept in memory to `spans_path` as JSON lines once they are done."""
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    try:
        passes = [run_pass(wl, specs, tracer) for _ in range(wl.trace_passes)]
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as f:
        for sid, parent, name, t0, t1 in tracer.spans:
            f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                "start": t0, "end": t1}) + "\n")
    return {"passes": passes, "layers": layer_metrics(tracer, len(passes)),
            "absent": tracer.absent, "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
