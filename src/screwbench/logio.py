"""CSV log, calibration pairs, scenario and report file formats.

Logs are plain CSV with header ``t_s,fz_n,mz_nm`` at 100 Hz, values in SI
units written with full precision so write/load round-trips bit-exactly. A
log holds a recording, the three columns ``t``, ``fz`` and ``mz``:
`write_log` takes them and `read_log` gives them as an `FtSeries`.
Calibration pairs are ``pot_reading,ref_force`` CSV rows under an optional
header. Reports are flat YAML key/value documents with deterministic key
order. A scenario file is a YAML document, which `scenario.load_scenario`
builds the run settings from. This is the only module that loads PyYAML,
and only the log read path loads numpy and the analysis module; writing a
log or a report needs neither. The log line scan and the pairs reader
share one row reader, `_read_rows`. A bad log or pairs file is cited as
``<path>:<line>: <what>``, or ``<path>: <what>`` where no line is at fault,
and a quoted row is shown through `errors.shown`; a scenario file that is
not valid YAML is cited as ``<path>: invalid YAML: <what> on line <N>``.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ScenarioError, ScrewbenchError, clip, shown

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


def write_log(path, t, fz, mz) -> None:
    """The columns `t`, `fz` and `mz`, of Python floats, as a log."""
    rows = [f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t, fz, mz)]
    write_text(path, LOG_HEADER + "\n" + "".join(rows))


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
        columns = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None,
                             ndmin=2, unpack=True)
    except ValueError:
        return None
    if len(columns) != 3:
        return None  # rows of another width: the line scan names the line
    try:
        return FtSeries(*columns)
    except ValueError:
        return None


def _read_log_lines(path) -> FtSeries:
    """Reference parser: one line at a time, naming the first bad line."""
    from .analysis import FtSeries
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != LOG_HEADER:
        raise ScrewbenchError(f"{path}:1: expected header {LOG_HEADER!r}")
    rows = _read_rows(path, lines[1:], 2, 3, "value in", header=False)
    if not rows:
        raise ScrewbenchError(f"{path}: log contains no samples")
    try:
        return FtSeries(*zip(*rows))
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


# Flow collections (`[`, `{`) nested deeper than this are a parse error:
# the scanner's work per token grows with the nesting level.
_MAX_FLOW_NESTING = 64


def read_scenario_file(path) -> object:
    """The YAML document of the scenario file at `path`, `{}` for an empty
    file; a file that is not valid YAML is a `ScenarioError` citing it and
    the line (`<path>: invalid YAML: <what> on line <N>`)."""
    import yaml

    class Loader(yaml.SafeLoader):
        """`yaml.safe_load`'s loader, except that a key repeated in one
        mapping is an error rather than the last value kept, and that flow
        collections nest at most `_MAX_FLOW_NESTING` levels deep."""

        def fetch_flow_collection_start(self, TokenClass):
            if self.flow_level >= _MAX_FLOW_NESTING:
                raise yaml.scanner.ScannerError(
                    None, None, f"flow collections nested deeper than "
                    f"{_MAX_FLOW_NESTING} levels", self.get_mark())
            super().fetch_flow_collection_start(TokenClass)

        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # `<<: *base` may be overridden by design
                key = self.construct_object(key_node, deep=deep)
                try:
                    repeated = key in seen
                except TypeError:  # unhashable: the base class refuses it
                    continue
                if repeated:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {shown(key)}",
                        key_node.start_mark)
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    # an integer literal past Python's digit limit is a ValueError, and
    # block nesting deeper than the parser's recursion limit a
    # RecursionError (flow nesting stops at `_MAX_FLOW_NESTING` first).
    # A parse error cites the line it stopped at, or the file's last line
    # where the file ends early, and PyYAML's text, which may quote a tag
    # or alias of any length, is cut by `clip`; a control character, which
    # has no mark, is cited at the line of its position in the text
    text = read_text(path)
    try:
        data = yaml.load(text, Loader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        mark = getattr(exc, "problem_mark", None)
        if isinstance(exc, yaml.reader.ReaderError):
            what = (f"unacceptable character #x{exc.character:04x}: "
                    f"{exc.reason} on line "
                    f"{len(text[:exc.position + 1].splitlines())}")
        elif mark is None:
            what = " ".join(str(exc).split())
        else:
            what = (f"{clip(exc.problem)} on line "
                    f"{min(mark.line + 1, len(text.splitlines()))}")
        raise ScenarioError(f"{path}: invalid YAML: {what}") from exc
    # an empty file is an empty mapping, so it still asks for the seed
    return {} if data is None else data


def format_report(data: dict) -> str:
    import yaml
    # libyaml's emitter when PyYAML was built with it: the same bytes as the
    # pure-Python one, about four times faster on an `analyze` report.
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(data, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)
