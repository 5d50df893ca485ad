"""CSV log and report file formats.

Logs are plain CSV with header ``t_s,fz_n,mz_nm`` at 100 Hz, values in SI
units written with full precision so write/load round-trips bit-exactly.
Reports are flat YAML key/value documents with deterministic key order.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .analysis import FtSeries
from .errors import LogFormatError, ScrewbenchError

LOG_HEADER = "t_s,fz_n,mz_nm"


def read_text(path) -> str:
    """A missing, unreadable or non-UTF-8 file is an error naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScrewbenchError(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ScrewbenchError(f"cannot write {path}: {exc}") from exc


def write_log(path, samples) -> None:
    lines = [LOG_HEADER]
    for s in samples:
        lines.append(f"{s.t!r},{s.fz!r},{s.mz!r}")
    write_text(path, "\n".join(lines) + "\n")


def read_log(path) -> FtSeries:
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != LOG_HEADER:
        raise LogFormatError(f"expected header {LOG_HEADER!r}", line=1)
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise LogFormatError("expected 3 comma-separated values",
                                 line=lineno)
        try:
            t, fz, mz = (float(p) for p in parts)
        except ValueError:
            raise LogFormatError(f"non-numeric value in {line!r}",
                                 line=lineno) from None
        if not all(map(math.isfinite, (t, fz, mz))):
            raise LogFormatError(f"non-finite value in {line!r}", line=lineno)
        samples.append((t, fz, mz))
    if not samples:
        raise LogFormatError("log contains no samples")
    try:
        return FtSeries(samples=samples)
    except ValueError as exc:
        raise LogFormatError(str(exc)) from exc


def write_report(path, data: dict) -> None:
    write_text(path, format_report(data))


def format_report(data: dict) -> str:
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
