"""Forensic event model and the newline-delimited trace file format.

Traces substitute for live kernel capture: UTF-8, one record per line,
compact keys, files end with a newline.

    {"t": 1.5, "c": "nginx-1", "sc": "openat", "pid": 42, "ret": 3, "bytes": 0}

Fields: t (float seconds since trace epoch), c (container id),
sc (syscall name), pid (int >= 0), ret (int return code, negative means
error), bytes (int in [0, 2**64), payload size where applicable).

A `ForensicEvent` is an immutable NamedTuple, so it compares, hashes and
unpacks like the tuple of its six fields.
"""

from __future__ import annotations

import io
import json
import math
import operator
import sys
from typing import IO, Iterable, Iterator, NamedTuple

from vaeguard.errors import MalformedRecord, OutOfOrderTimestamp

_FIELDS = ("t", "c", "sc", "pid", "ret", "bytes")

# Every int up to this converts to a finite float.
_MAX_INT_TIMESTAMP = int(sys.float_info.max)

# A payload size is a syscall's size_t.
_BYTES_LIMIT = 2**64

_record_fields = operator.itemgetter(*_FIELDS)


class ForensicEvent(NamedTuple):
    """One syscall record."""

    timestamp: float
    container_id: str
    syscall: str
    pid: int
    result: int
    arg_bytes: int


def _require(condition: bool, line_no: int, reason: str) -> None:
    if not condition:
        raise MalformedRecord(line_no, reason)


def parse_event_record(line: str, line_no: int = 0) -> ForensicEvent:
    """Parse one trace line; malformed syntax or field values raise."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_no, f"invalid record syntax: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or nesting too deep
        raise MalformedRecord(line_no, f"invalid record syntax: {exc}") from exc
    _require(isinstance(raw, dict), line_no, "record is not an object")
    missing = [f for f in _FIELDS if f not in raw]
    _require(not missing, line_no, f"missing fields: {', '.join(missing)}")

    t = raw["t"]
    _require(
        isinstance(t, (int, float)) and not isinstance(t, bool),
        line_no,
        "t must be numeric",
    )
    try:
        t = float(t)
    except OverflowError:
        t = math.inf
    _require(math.isfinite(t) and t >= 0.0, line_no, "t must be finite and >= 0")
    _require(
        isinstance(raw["c"], str) and raw["c"] != "", line_no, "c must be a non-empty string"
    )
    _require(
        isinstance(raw["sc"], str) and raw["sc"] != "",
        line_no,
        "sc must be a non-empty string",
    )
    for field in ("pid", "ret", "bytes"):
        _require(
            isinstance(raw[field], int) and not isinstance(raw[field], bool),
            line_no,
            f"{field} must be an integer",
        )
    _require(raw["pid"] >= 0, line_no, "pid must be >= 0")
    _require(raw["bytes"] >= 0, line_no, "bytes must be >= 0")
    _require(raw["bytes"] < _BYTES_LIMIT, line_no, "bytes must be < 2**64")

    return ForensicEvent(
        timestamp=t,
        container_id=raw["c"],
        syscall=raw["sc"],
        pid=raw["pid"],
        result=raw["ret"],
        arg_bytes=raw["bytes"],
    )


def format_event_record(event: ForensicEvent) -> str:
    """Canonical single-line serialization (no trailing newline)."""
    return json.dumps(
        {
            "t": event.timestamp,
            "c": event.container_id,
            "sc": event.syscall,
            "pid": event.pid,
            "ret": event.result,
            "bytes": event.arg_bytes,
        },
        separators=(",", ":"),
    )


def read_trace(source: IO[str] | io.TextIOBase) -> Iterator[ForensicEvent]:
    """Yield events in file order, enforcing non-decreasing timestamps.

    Each line is decoded once and checked by one combined predicate.
    A line that fails it goes through `parse_event_record`, which raises
    the first failing field's reason. Container and syscall strings are
    shared across the events of one read.
    """
    raw_decode = json.JSONDecoder().raw_decode
    # builds what ForensicEvent(...) builds, without its Python-level __new__
    new_event = tuple.__new__
    shared: dict[str, str] = {}
    share = shared.setdefault
    inf = math.inf
    last_t = -inf
    for index, line in enumerate(source):
        stripped = line.strip()
        if not stripped:
            continue
        # json.loads(stripped) without its two whitespace scans: a stripped
        # line decodes alike when the decoder consumes all of it.
        try:
            raw, end = raw_decode(stripped)
            t, c, sc, pid, ret, nbytes = _record_fields(raw)
        except (ValueError, RecursionError, KeyError, TypeError):
            end = None
        # For decoded JSON, `type(x) is int` is isinstance(x, int) and not bool.
        if (
            end == len(stripped)
            and type(c) is type(sc) is str
            and c
            and sc
            and type(pid) is type(ret) is type(nbytes) is int
            and pid >= 0
            and 0 <= nbytes < _BYTES_LIMIT
            and (
                type(t) is float and 0.0 <= t < inf
                or type(t) is int and 0 <= t <= _MAX_INT_TIMESTAMP
            )
        ):
            t = float(t)
            event = new_event(ForensicEvent, (t, share(c, c), share(sc, sc), pid, ret, nbytes))
        else:
            event = parse_event_record(stripped, line_no=index)
            t = event.timestamp
        if t < last_t:
            raise OutOfOrderTimestamp(index)
        last_t = t
        yield event


def read_trace_file(path) -> list[ForensicEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return list(read_trace(fh))
        except UnicodeDecodeError as exc:
            undecodable = exc
    # Off the hot path: read again with undecodable bytes kept as lone
    # surrogates (which no UTF-8 text holds) to find the first such line;
    # an error on a line before it still comes first.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines: list[str] = []
        for line in fh:
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                list(read_trace(lines))
                raise MalformedRecord(len(lines), "not UTF-8") from None
            lines.append(line)
    raise undecodable


def write_trace(events: Iterable[ForensicEvent], sink: IO[str]) -> int:
    """Write events one per line; returns the number of records written."""
    count = 0
    for event in events:
        sink.write(format_event_record(event))
        sink.write("\n")
        count += 1
    return count


def write_trace_file(events: Iterable[ForensicEvent], path) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        return write_trace(events, fh)
