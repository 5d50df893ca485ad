"""CSV log, calibration pairs and report file formats.

Logs are plain CSV with header ``t_s,fz_n,mz_nm`` at 100 Hz, values in SI
units written with full precision so write/load round-trips bit-exactly.
Calibration pairs are ``pot_reading,ref_force`` CSV rows under an optional
header. Reports are flat YAML key/value documents with deterministic key
order. Only the log read path loads numpy and the analysis module; writing
a log or a report needs neither.
"""

from __future__ import annotations

import io
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import LogFormatError, ScrewbenchError

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
    with warnings.catch_warnings():
        # an empty body is only a warning to loadtxt
        warnings.simplefilter("error", UserWarning)
        try:
            rows = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None,
                              ndmin=2)
        except (ValueError, UserWarning):
            return None
    if len(rows) == 0 or rows.shape[1] != 3 or not np.isfinite(rows).all():
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


def read_pairs(path) -> list:
    """The finite (pot_reading, ref_force) pairs of a calibration CSV; a
    first row that is not numeric is a header. A bad row is an error
    naming the file and the line."""
    pairs = []
    first = True
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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


def format_report(data: dict) -> str:
    import yaml
    # libyaml's emitter when PyYAML was built with it: the same bytes as the
    # pure-Python one, about four times faster on an `analyze` report.
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(data, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)
