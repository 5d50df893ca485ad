"""Benchmark inputs, made by the benchmark's own generator.

The analysis workloads read logs generated here from the workload seed and
never by screwbench's simulator, so a change to the simulator or to its RNG
stream cannot change the bytes the analysis path is timed on. The logs
imitate screwing runs as the controller produces them: running torque
ramping with engaged depth, cam-out drops to zero torque while the tip
skips, force following margin * nu * tau, and 0.1 N / 0.003 N·m sensor
noise rectified to absolute values.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from workloads import LOG_HEADER

DT = 0.01  # s, 100 Hz
FORCE_NOISE = 0.1  # N
TORQUE_NOISE = 0.003  # N·m
MARGIN = 2.0
F_MIN, F_MAX = 1.0, 50.0  # N, controller force clamp
TAU_CUT, TAU_FULL = 0.03, 0.19  # N·m at first and full engagement
SLIP_DWELL = 10  # samples a cam-out holds the torque at zero
SLIP_RATE_START = 4.0  # cam-outs per second at the start of a run

SESSION_SAMPLES = 40_000  # 400 s
SESSION_GAP = 100  # idle samples between runs of a session
SESSION_NU = 106.0  # 1/m, Phillips
RUN_SAMPLES = (1650, 1750)  # inclusive range of one run's length
COMPARE_GROUPS = (("a", 8, 57.0), ("b", 32, 106.0))  # label, logs, nu

# One entropy tag per fixture family keeps their streams independent.
_SESSION_TAG, _COMPARE_TAG = 1, 2

MIX_KINDS = (
    ("screwing", "phillips", "plastic_hole"),
    ("unscrewing", "phillips", "plastic_hole"),
    ("screwing", "internal_hex", "plastic_hole"),
    ("unscrewing", "internal_hex", "nut"),
    ("screwing", "mismatched_driver", "plastic_hole"),
    ("screwing", "phillips", "nut"),
)


def screwing_run(rng: np.random.Generator, n: int, nu: float):
    """Noise-free (fz, mz) of one screwing run of n samples.

    Cam-outs start at SLIP_RATE_START per second and die away as the force
    ramps, as in the force-ramp experiment; the force does not drop during
    a cam-out because the spring mount holds it.
    """
    frac = np.arange(n) / max(n - 1, 1)
    tau_run = TAU_CUT + (TAU_FULL - TAU_CUT) * frac
    fz = np.clip(MARGIN * nu * tau_run, F_MIN, F_MAX)
    p_slip = SLIP_RATE_START * DT * np.exp(-3.0 * frac)
    onsets = np.flatnonzero(rng.random(n) < p_slip)
    slipping = np.zeros(n, dtype=bool)
    for i in onsets:
        slipping[i:i + SLIP_DWELL] = True
    mz = np.where(slipping, 0.0, tau_run)
    return fz, mz


def sensed(rng: np.random.Generator, fz: np.ndarray, mz: np.ndarray):
    """Add the sensor noise and rectify, like the force/torque sensor."""
    fz = np.abs(fz + rng.normal(0.0, FORCE_NOISE, len(fz)))
    mz = np.abs(mz + rng.normal(0.0, TORQUE_NOISE, len(mz)))
    return fz, mz


def log_text(fz: np.ndarray, mz: np.ndarray) -> str:
    """CSV log text in screwbench's format, timestamps (i + 1) * DT."""
    t = np.arange(1, len(fz) + 1) * DT
    lines = [LOG_HEADER]
    lines.extend(f"{a!r},{b!r},{c!r}"
                 for a, b, c in zip(t.tolist(), fz.tolist(), mz.tolist()))
    return "\n".join(lines) + "\n"


def session_log(seed: int) -> str:
    """A 400 s session: screwing runs back to back with idle gaps."""
    rng = np.random.default_rng([_SESSION_TAG, seed])
    fz_parts, mz_parts, total = [], [], 0
    while total < SESSION_SAMPLES:
        n = int(rng.integers(RUN_SAMPLES[0], RUN_SAMPLES[1] + 1))
        fz, mz = screwing_run(rng, n, SESSION_NU)
        fz_parts += [fz, np.full(SESSION_GAP, F_MIN)]
        mz_parts += [mz, np.zeros(SESSION_GAP)]
        total += n + SESSION_GAP
    fz = np.concatenate(fz_parts)[:SESSION_SAMPLES]
    mz = np.concatenate(mz_parts)[:SESSION_SAMPLES]
    return log_text(*sensed(rng, fz, mz))


def compare_logs(seed: int) -> dict:
    """{(group, index): log text}: one screwing run per log, each group
    with its own force/torque ratio margin * nu."""
    out = {}
    for g, (label, count, nu) in enumerate(COMPARE_GROUPS):
        for i in range(count):
            rng = np.random.default_rng([_COMPARE_TAG, seed, g, i])
            n = int(rng.integers(RUN_SAMPLES[0], RUN_SAMPLES[1] + 1))
            out[(label, i)] = log_text(*sensed(rng, *screwing_run(rng, n, nu)))
    return out


def scenario_text(direction: str, head: str, substrate: str) -> str:
    return (f"direction: {direction}\nseed: 0\n"
            f"screw: {{head_type: {head}}}\n"
            f"substrate: {{kind: {substrate}}}\n")


def count_samples(text: str) -> int:
    return text.count("\n") - 1


def write(workload: str, workdir: Path, seed: int) -> dict:
    """Write the fixture files one workload reads; return its manifest:
    the paths, the samples they hold and the SHA-256 of their bytes."""
    files: dict[str, str] = {}
    manifest: dict = {"dir": str(workdir)}
    if workload == "analyze_session":
        files["session.csv"] = session_log(seed)
        manifest["log"] = str(workdir / "session.csv")
    elif workload == "compare_groups":
        for (label, i), text in compare_logs(seed).items():
            files[f"group_{label}/run_{i:02d}.csv"] = text
        manifest["groups"] = [str(workdir / f"group_{label}")
                              for label, _, _ in COMPARE_GROUPS]
    elif workload == "simulate_mix":
        names = []
        for kind in MIX_KINDS:
            name = "scenarios/" + "_".join(kind) + ".yaml"
            files[name] = scenario_text(*kind)
            names.append(str(workdir / name))
        manifest["scenarios"] = names
    digest = hashlib.sha256()
    for name in sorted(files):
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        data = files[name].encode()
        path.write_bytes(data)
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    manifest["files"] = len(files)
    manifest["samples"] = sum(count_samples(t) for n, t in files.items()
                              if n.endswith(".csv"))
    manifest["sha256"] = digest.hexdigest()
    return manifest
