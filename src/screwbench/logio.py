"""CSV log, calibration pairs and report file formats.

Logs are plain CSV with header ``t_s,fz_n,mz_nm`` at 100 Hz, values in SI
units written with full precision so write/load round-trips bit-exactly.
Calibration pairs are ``pot_reading,ref_force`` CSV rows under an optional
header. Reports are flat YAML key/value documents with deterministic key
order. Only the log read path loads numpy and the analysis module; writing
a log or a report needs neither. The log line scan and the pairs reader
share one row reader, `_read_rows`. A bad log or pairs file is cited as
``<path>:<line>: <what>``, or ``<path>: <what>`` where no line is at fault,
and a quoted row is shown through `errors.shown`.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ScrewbenchError, shown

if TYPE_CHECKING:
    from .analysis import FtSeries

LOG_HEADER = "t_s,fz_n,mz_nm"

# Every byte `write_log` can put in the body of a log. A body of these
# bytes alone is parsed in one `np.loadtxt` pass. Anything else goes to the
# line scan, because loadtxt and `str.splitlines`/`float` disagree there:
# blanks, `\r` and the other characters `splitlines` breaks at, `_`, `nan`,
# non-ASCII.
_WRITER_BODY_BYTES = b"0123456789+-.eE,\n"


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
    """The log at `path` as an `FtSeries`. A log as `write_log` writes it
    is parsed in one vectorized pass; any other file goes through the line
    scan, so a malformed row still gets the error naming its line."""
    series = _read_log_fast(path)
    return series if series is not None else _read_log_lines(path)


def _read_log_fast(path) -> FtSeries | None:
    """The log parsed by one `np.loadtxt` call, or None wherever the line
    scan might decide differently: then the caller falls back to it."""
    import numpy as np

    from .analysis import FtSeries
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    header, _, body = data.partition(b"\n")
    if header != LOG_HEADER.encode():
        return None
    if body.translate(None, _WRITER_BODY_BYTES):
        return None  # a byte the writer never emits
    if b"," not in body:
        return None  # no row: loadtxt would only warn about an empty body
    try:
        rows = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None,
                          ndmin=2)
    except ValueError:
        return None
    try:
        return FtSeries(samples=rows)
    except ValueError:
        return None


def _read_log_lines(path) -> FtSeries:
    """Reference parser: one line at a time, naming the first bad line."""
    from .analysis import FtSeries
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != LOG_HEADER:
        raise ScrewbenchError(f"{path}:1: expected header {LOG_HEADER!r}")
    samples = _read_rows(path, lines[1:], 2, 3, "value in", header=False)
    if not samples:
        raise ScrewbenchError(f"{path}: log contains no samples")
    try:
        return FtSeries(samples=samples)
    except ValueError as exc:
        raise ScrewbenchError(f"{path}: {exc}") from exc


def read_pairs(path) -> list:
    """The finite (pot_reading, ref_force) pairs of a calibration CSV; a
    first row that is not numeric is a header, and a leading byte-order
    mark (U+FEFF) is not part of it. A bad row is an error naming the file
    and the line."""
    text = read_text(path).removeprefix("\ufeff")
    return _read_rows(path, text.splitlines(), 1, 2, "pair", header=True)


def _read_rows(path, lines, start, width, noun, *, header) -> list:
    """The rows of `lines`, numbered from `start`, as tuples of `width`
    finite floats; blank lines are skipped and, with `header`, a first
    non-blank row that is not numeric. A bad row is an error naming its
    line, and a bad value quotes the row after `non-numeric <noun>` or
    `non-finite <noun>`."""
    rows = []
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        header_allowed, header = header, False
        parts = line.split(",")
        if len(parts) != width:
            raise ScrewbenchError(
                f"{path}:{lineno}: expected {width} comma-separated values")
        try:
            row = tuple(map(float, parts))
        except ValueError:
            if header_allowed:
                continue  # header row
            raise ScrewbenchError(f"{path}:{lineno}: non-numeric {noun} "
                                  f"{shown(line)}") from None
        if not all(map(math.isfinite, row)):
            raise ScrewbenchError(
                f"{path}:{lineno}: non-finite {noun} {shown(line)}")
        rows.append(row)
    return rows


def format_report(data: dict) -> str:
    import yaml
    # libyaml's emitter when PyYAML was built with it: the same bytes as the
    # pure-Python one, about four times faster on an `analyze` report.
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(data, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)
