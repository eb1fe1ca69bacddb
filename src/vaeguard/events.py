"""Forensic event model and the newline-delimited trace file format.

Traces substitute for live kernel capture: UTF-8, one record per line,
compact keys, files end with a newline.

    {"t": 1.5, "c": "nginx-1", "sc": "openat", "pid": 42, "ret": 3, "bytes": 0}

Fields: t (float seconds since trace epoch), c (container id),
sc (syscall name), pid (int >= 0), ret (int return code, negative means
error), bytes (int in [0, 2**64), payload size where applicable).

A `ForensicEvent` is an immutable NamedTuple, so it compares, hashes and
unpacks like the tuple of its six fields.

`read_trace_file` returns an `EventBlock`: the trace as columns (float64
timestamps, and codes into shared tables of container ids, syscall names
and distinct pid/ret/bytes triples). It is a `Sequence[ForensicEvent]`
that builds each event only when it is indexed or iterated. Its slices
are zero-copy views that share the tables, and `EventBlock.take` makes a
view that indexes its columns instead of copying them. The file is read
once, in newline-aligned chunks. One regular expression, which matches
each line's start and captures its timestamp, splits a chunk into
timestamps and record bodies (everything after "t", newline included),
so a body's characters are scanned once. A body not seen before is
checked and decoded once, with the chunk's other new bodies, and a
repeated one is a dictionary lookup. A chunk whose every line is in the
writer's canonical form is read that way, and any other chunk goes line
by line through `parse_event_record`, so every valid JSON record is
accepted and every error names the same line and reason either way. A
byte that is not UTF-8 is its line's "not UTF-8" error, reported in line
order like any other.

`as_block` builds a block from any other sequence of events, and holds
only what a trace can: a t that is an int or a float, a container and a
syscall that are non-empty strs, and pid, ret and bytes that are exact
ints (a bool is none of these), with pid >= 0 and bytes in [0, 2**64).
Any other value raises ValueError naming its field ("events: every ret
must be an integer").

Memory: the four columns are allocated once, before the first chunk,
for as many events as the file's size allows (no valid record is
shorter than 50 characters, and UTF-8 spends at least a byte on each),
and every chunk's values are written into them in place. The block's
columns are views of the filled prefix, so reading holds each column
once, never a copy per chunk beside the joined one. Pages of the
allowance that no event reaches are never touched, so they take no
resident memory. A source whose size says nothing, such as a FIFO, makes
the columns start small and double as events arrive. Reading remembers
at most BODY_CACHE_SIZE bodies, and forgets them all between chunks once
it holds that many. The tables also hold the record text of each syscall
and each distinct pid/ret/bytes triple, written once as they are built
(see `EventTables`).
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from vaeguard.errors import MalformedRecord, OutOfOrderTimestamp

_FIELDS = ("t", "c", "sc", "pid", "ret", "bytes")

# A payload size is a syscall's size_t.
_BYTES_LIMIT = 2**64

# The package's one compact JSON encoder: compact separators, every other
# option json.dumps's default. json.dumps(..., separators=...) builds a new
# JSONEncoder per call; this one is built once and writes the same text.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

# Characters of trace text per chunk, extended to the next newline. Larger
# chunks read no faster and leave more transient strings and arrays.
CHUNK_SIZE = 1 << 16

# Distinct record bodies `read_trace_file` remembers; once this many are
# known, it forgets them before the next chunk.
BODY_CACHE_SIZE = 4096

# The start of a record line, whose group is its timestamp text: splitting
# a chunk by it leaves each line's body, everything after "t", with its
# newline. The timestamp here and _BODY accept only the writer's canonical
# form, whose values float() and int() read as json does: strings without
# escapes or control characters, a timestamp without sign or leading
# zeros, and integers short enough that pid and ret fit int64,
# bytes < 10**19 < 2**64, and no digit limit applies. Strings hold no
# lone surrogate, which is how an undecodable byte reads. The optional
# fraction and exponent are written `(?:X|)`, not `(?:X)?`: both try X
# first and match the same text, but CPython's sre compiles a group under
# `?` to its general REPEAT ... MAX_UNTIL loop and the alternation to a
# BRANCH, which takes about a fifth off a chunk's split (an eighth under
# CPython 3.10).
_LINE = re.compile(r'\{"t":((?:[1-9][0-9]{0,29}|0)(?:\.[0-9]{1,30}|)(?:[eE][-+]?[0-9]{1,3}|)),')
# A canonical body, newline included. Groups: c, sc, pid, ret, bytes. No
# canonical string holds a '"', so no canonical body holds a '{"t":' and a
# chunk of canonical lines splits only at its line starts; nor a NUL,
# which separates the bodies `_BlockAssembler.body_codes` checks at once.
_BODY = re.compile(
    r'"c":"([^"\\\x00-\x1f\ud800-\udfff]+)","sc":"([^"\\\x00-\x1f\ud800-\udfff]+)",'
    r'"pid":(0|[1-9][0-9]{0,17}),"ret":(-?(?:0|[1-9][0-9]{0,17})),"bytes":(0|[1-9][0-9]{0,18})\}\n'
)


class ForensicEvent(NamedTuple):
    """One syscall record."""

    timestamp: float
    container_id: str
    syscall: str
    pid: int
    result: int
    arg_bytes: int


def parse_event_record(line: str, line_no: int = 0) -> ForensicEvent:
    """Parse one trace line; malformed syntax or field values raise."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_no, f"invalid record syntax: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or nesting too deep
        raise MalformedRecord(line_no, f"invalid record syntax: {exc}") from exc
    if type(raw) is not dict:
        raise MalformedRecord(line_no, "record is not an object")
    try:
        t, container, syscall, pid, result, arg_bytes = [raw[f] for f in _FIELDS]
    except KeyError:
        missing = [f for f in _FIELDS if f not in raw]
        raise MalformedRecord(line_no, f"missing fields: {', '.join(missing)}") from None
    # json.loads makes exact types, so `type(v) is int` also rules out a bool
    if type(t) not in (int, float):
        raise MalformedRecord(line_no, "t must be numeric")
    try:
        t = float(t)
    except OverflowError:
        t = math.inf
    if not (math.isfinite(t) and t >= 0.0):
        raise MalformedRecord(line_no, "t must be finite and >= 0")
    if type(container) is not str or not container:
        raise MalformedRecord(line_no, "c must be a non-empty string")
    if type(syscall) is not str or not syscall:
        raise MalformedRecord(line_no, "sc must be a non-empty string")
    if type(pid) is not int:
        raise MalformedRecord(line_no, "pid must be an integer")
    if type(result) is not int:
        raise MalformedRecord(line_no, "ret must be an integer")
    if type(arg_bytes) is not int:
        raise MalformedRecord(line_no, "bytes must be an integer")
    if pid < 0:
        raise MalformedRecord(line_no, "pid must be >= 0")
    if arg_bytes < 0:
        raise MalformedRecord(line_no, "bytes must be >= 0")
    if arg_bytes >= _BYTES_LIMIT:
        raise MalformedRecord(line_no, "bytes must be < 2**64")
    return ForensicEvent(t, container, syscall, pid, result, arg_bytes)


def format_event_record(event: ForensicEvent) -> str:
    """Canonical single-line serialization (no trailing newline)."""
    return compact_json(
        {
            "t": event.timestamp,
            "c": event.container_id,
            "sc": event.syscall,
            "pid": event.pid,
            "ret": event.result,
            "bytes": event.arg_bytes,
        }
    )


# -- columnar events -----------------------------------------------------------


class EventTables:
    """The value tables an `EventBlock`'s code columns index into.

    A tail is one distinct (pid, result, arg_bytes) triple of exact ints;
    tail code k indexes `pids`, `results` and `arg_bytes`. The per-tail
    arrays are what summaries need of them: a code per distinct pid,
    whether the result is an error, and the byte count as a float.

    The two text arrays are what a published record writes per event,
    built once with the table so that encoding a drift only looks them
    up: `syscall_texts[k]` is "," + compact_json(syscalls[k]) + ",", and
    `tail_texts[k]` is compact_json([pid, ret, bytes]) of tail k without
    its brackets, + "],[", which for exact ints is their str() joined by
    commas. An event's row is then its timestamp's text, its syscall text
    and its tail text, joined.
    """

    __slots__ = (
        "containers", "syscalls", "pids", "results", "arg_bytes",
        "pid_codes", "error_tails", "byte_floats", "syscall_texts", "tail_texts",
    )

    def __init__(self, containers: Sequence[str], syscalls: Sequence[str], tails: Sequence[tuple]):
        self.containers = tuple(containers)
        self.syscalls = tuple(syscalls)
        self.pids, self.results, self.arg_bytes = tuple(zip(*tails)) if tails else ((), (), ())
        pid_index: dict[int, int] = {}
        self.pid_codes = _frozen(
            np.array([pid_index.setdefault(p, len(pid_index)) for p in self.pids], dtype=np.intp)
        )
        self.error_tails = _frozen(np.array([r < 0 for r in self.results], dtype=bool))
        self.byte_floats = _frozen(np.array([float(b) for b in self.arg_bytes], dtype=np.float64))
        self.syscall_texts = _frozen(
            np.array([f",{compact_json(s)}," for s in self.syscalls], dtype=object)
        )
        # json writes an exact int as str() does
        self.tail_texts = _frozen(np.array([f"{p},{r},{b}],[" for p, r, b in tails], dtype=object))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class EventBlock(Sequence[ForensicEvent]):
    """An immutable run of events held as columns.

    `timestamps` is float64; `container_codes` and `syscall_codes` index
    `tables.containers` and `tables.syscalls`, and `tail_codes` the
    tables' tails. Indexing or iterating builds `ForensicEvent`s; a slice
    is a view of the same columns. A block compares equal to the tuple
    (or list) of its events.

    `take` makes a view too: a block that holds an index into its
    source's columns (int32, the dtype of the code columns) and gathers a
    column each time that column is read. Its slices and takes compose
    the index, and indexing one of its events reads that event from the
    source, so such a view costs 4 bytes per event, against 20 for a copy.
    """

    __slots__ = ("_timestamps", "_container_codes", "_syscall_codes", "_tail_codes", "_index", "tables")

    def __init__(
        self, timestamps, container_codes, syscall_codes, tail_codes, tables: EventTables, index=None
    ):
        self._timestamps = timestamps
        self._container_codes = container_codes
        self._syscall_codes = syscall_codes
        self._tail_codes = tail_codes
        self.tables = tables
        # positions in the columns above, or None when the columns are the block's own
        self._index = index

    def _read(self, column: np.ndarray) -> np.ndarray:
        index = self._index
        # take, not column[index]: numpy indexes with an int32 array far slower
        return column if index is None else _frozen(column.take(index))

    @property
    def timestamps(self) -> np.ndarray:
        return self._read(self._timestamps)

    @property
    def container_codes(self) -> np.ndarray:
        return self._read(self._container_codes)

    @property
    def syscall_codes(self) -> np.ndarray:
        return self._read(self._syscall_codes)

    @property
    def tail_codes(self) -> np.ndarray:
        return self._read(self._tail_codes)

    def _view(self, index: np.ndarray) -> EventBlock:
        """The events of this block's columns at `index`."""
        return EventBlock(
            self._timestamps, self._container_codes, self._syscall_codes, self._tail_codes,
            self.tables, index,
        )

    def __len__(self) -> int:
        return len(self._timestamps if self._index is None else self._index)

    def __getitem__(self, index):
        positions = self._index
        if isinstance(index, slice):
            if positions is not None:
                return self._view(positions[index])
            return EventBlock(
                self._timestamps[index],
                self._container_codes[index],
                self._syscall_codes[index],
                self._tail_codes[index],
                self.tables,
            )
        if positions is not None:
            index = positions[index]
        tables = self.tables
        tail = self._tail_codes[index]
        return ForensicEvent(
            float(self._timestamps[index]),
            tables.containers[self._container_codes[index]],
            tables.syscalls[self._syscall_codes[index]],
            tables.pids[tail],
            tables.results[tail],
            tables.arg_bytes[tail],
        )

    def __iter__(self) -> Iterator[ForensicEvent]:
        tables = self.tables
        tails = self.tail_codes.tolist()
        fields = zip(
            self.timestamps.tolist(),
            map(tables.containers.__getitem__, self.container_codes.tolist()),
            map(tables.syscalls.__getitem__, self.syscall_codes.tolist()),
            map(tables.pids.__getitem__, tails),
            map(tables.results.__getitem__, tails),
            map(tables.arg_bytes.__getitem__, tails),
        )
        # builds what ForensicEvent(*f) builds, without its Python-level __new__
        return map(functools.partial(tuple.__new__, ForensicEvent), fields)

    def rows(self) -> Iterator[tuple[float, str, int, int, int]]:
        """(timestamp, syscall, pid, result, arg_bytes) per event, straight
        from the columns: what a published action ships per event."""
        tables = self.tables
        tails = self.tail_codes.tolist()
        return zip(
            self.timestamps.tolist(),
            map(tables.syscalls.__getitem__, self.syscall_codes.tolist()),
            map(tables.pids.__getitem__, tails),
            map(tables.results.__getitem__, tails),
            map(tables.arg_bytes.__getitem__, tails),
        )

    def take(self, indices: np.ndarray) -> EventBlock:
        """A view of the events at `indices`, which index this block as
        they would a numpy array (positions, negative ones included, or a
        boolean mask); the one array it makes is its index."""
        index = self._index
        if index is None:
            n = len(self._timestamps)
            # a source too long for int32 positions keeps numpy's own
            index = np.arange(n, dtype=_CODE if n <= np.iinfo(_CODE).max else np.intp)
        return self._view(_frozen(index[np.asarray(indices)]))

    def __eq__(self, other):
        if isinstance(other, (EventBlock, tuple, list)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EventBlock({len(self)} events)"


# dtypes of the columns: timestamps, then container, syscall and tail codes
_CODE = np.int32
_DTYPES = (np.float64, _CODE, _CODE, _CODE)


class _BlockAssembler:
    """Fills columns chunk by chunk against growing value tables.

    The columns are allocated once, for `capacity` events, and each
    chunk's values are written into them in place; they double only when
    more events arrive than `capacity` allowed for. `build` hands out
    views of the filled prefix.
    """

    def __init__(self, capacity: int = 0):
        # each table: value -> code
        self.containers: dict[str, int] = {}
        self.syscalls: dict[str, int] = {}
        self.tails: dict[tuple[int, int, int], int] = {}
        self.bodies = _BodyCodes()
        self.columns = [np.empty(capacity, dtype) for dtype in _DTYPES]
        self.count = 0

    def append(self, *chunks) -> None:
        """Write one chunk's values (an array or a sequence per column)."""
        start = self.count
        end = self.count = start + len(chunks[0])
        capacity = len(self.columns[0])
        if end > capacity:
            grown = [np.empty(max(end, 2 * capacity), dtype) for dtype in _DTYPES]
            for new, old in zip(grown, self.columns):
                new[:start] = old[:start]
            self.columns = grown
        for column, chunk in zip(self.columns, chunks):
            column[start:end] = chunk

    def body_codes(self, bodies: list[str]) -> np.ndarray | None:
        """The (container, syscall, tail) codes of each body, one row each,
        checking and reading each body the cache does not hold; None, with
        nothing registered, when one of those bodies is not canonical."""
        if len(self.bodies) >= BODY_CACHE_SIZE:
            self.bodies = _BodyCodes()
        cache = self.bodies
        rows = np.fromiter(map(cache.__getitem__, bodies), dtype=_CODE, count=len(bodies))
        pending = cache.pending
        if pending:
            parts = _BODY.split("\0".join(pending) + "\0")
            # canonical exactly when each body is one whole match and its NUL follows
            if parts[::6] != [""] + ["\0"] * len(pending):
                for body in pending:
                    del cache[body]
                pending.clear()
                return None
            tails = zip(map(int, parts[3::6]), map(int, parts[4::6]), map(int, parts[5::6]))
            cache.fill(np.column_stack((
                _codes(self.containers, parts[1::6]),
                _codes(self.syscalls, parts[2::6]),
                _codes(self.tails, list(tails)),
            )))
        return cache.rows[rows]

    def add_events(self, events: Iterable[ForensicEvent]) -> None:
        columns = tuple(zip(*events))
        if not columns:
            return
        times, containers, syscalls, pids, results, arg_bytes = columns
        for name, values, kinds, kind in (
            ("t", times, {int, float}, "a number"),
            ("container", containers, {str}, "a non-empty string"),
            ("syscall", syscalls, {str}, "a non-empty string"),
            ("pid", pids, {int}, "an integer"),
            ("ret", results, {int}, "an integer"),
            ("bytes", arg_bytes, {int}, "an integer"),
        ):
            # exact types, as json.loads makes them: a bool is no number here
            if not set(map(type, values)) <= kinds or (kinds == {str} and "" in values):
                raise ValueError(f"events: every {name} must be {kind}")
        if min(pids) < 0:
            raise ValueError("events: every pid must be >= 0")
        if min(arg_bytes) < 0 or max(arg_bytes) >= _BYTES_LIMIT:
            raise ValueError("events: every bytes must be in [0, 2**64)")
        try:
            times = np.array(times, dtype=np.float64)
        except OverflowError:  # an int past float range
            raise ValueError("events: every t must be within float range") from None
        self.append(
            times,
            _codes(self.containers, containers),
            _codes(self.syscalls, syscalls),
            _codes(self.tails, list(zip(pids, results, arg_bytes))),
        )

    def build(self) -> EventBlock:
        tables = EventTables(self.containers, self.syscalls, self.tails)
        filled = [_frozen(column[: self.count]) for column in self.columns]
        return EventBlock(*filled, tables)


def _codes(table: dict, values: Sequence) -> np.ndarray:
    """Each value's code in `table`, adding unseen values in order of first use."""
    for value in dict.fromkeys(values):
        table.setdefault(value, len(table))
    return np.fromiter(map(table.__getitem__, values), dtype=_CODE, count=len(values))


class _BodyCodes(dict):
    """Record body -> its row in `rows`, the body's (container, syscall,
    tail) codes. A body not seen before gets the next row and waits in
    `pending` until `_BlockAssembler.body_codes` fills its row."""

    def __init__(self):
        super().__init__()
        self.pending: list[str] = []
        self.rows = np.zeros((0, 3), dtype=_CODE)

    def __missing__(self, body: str) -> int:
        row = self[body] = len(self)
        self.pending.append(body)
        return row

    def fill(self, codes: np.ndarray) -> None:
        """Write the pending bodies' rows, doubling `rows` when they do not fit."""
        end = len(self)
        if end > len(self.rows):
            grown = np.zeros((max(end, 2 * len(self.rows)), 3), dtype=_CODE)
            grown[: len(self.rows)] = self.rows
            self.rows = grown
        self.rows[end - len(codes) : end] = codes
        self.pending.clear()


def as_block(events: Iterable[ForensicEvent]) -> EventBlock:
    """`events` itself when it is a block, else a new block of them;
    ValueError, naming the field, for a value no trace holds (see the
    module docstring)."""
    if isinstance(events, EventBlock):
        return events
    assembler = _BlockAssembler()
    assembler.add_events(events)
    return assembler.build()


# -- reading -------------------------------------------------------------------


def _parse_lines(lines: Iterable[str], first_index: int, last_t: float) -> Iterator[ForensicEvent]:
    """Events of `lines` (numbered from `first_index`), each no earlier than
    its predecessor, the first of which is `last_t`."""
    for index, line in enumerate(lines, first_index):
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.isascii():
            try:
                stripped.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRecord(index, "not UTF-8") from None
        event = parse_event_record(stripped, index)
        if event.timestamp < last_t:
            raise OutOfOrderTimestamp(index)
        last_t = event.timestamp
        yield event


def read_trace(source: IO[str] | io.TextIOBase) -> Iterator[ForensicEvent]:
    """Yield events in file order, enforcing non-decreasing timestamps.

    Each non-blank line goes through `parse_event_record`. A line holding
    a lone surrogate (an undecodable byte read with "surrogateescape")
    raises `MalformedRecord` with the reason "not UTF-8".
    """
    return _parse_lines(source, 0, -math.inf)


def _add_chunk(
    assembler: _BlockAssembler, chunk: str, first_index: int, last_t: float
) -> tuple[float, int]:
    """Add the events of `chunk`, whose lines are numbered from
    `first_index` and end in newlines; returns its last timestamp and
    its number of lines."""
    parts = _LINE.split(chunk)
    # canonical exactly when the chunk starts with a line start and every body is canonical
    codes = None if parts[0] else assembler.body_codes(parts[2::2])
    if codes is not None:
        times = np.fromiter(map(float, parts[1::2]), dtype=np.float64, count=len(codes))
        if np.isfinite(times).all():
            backwards = np.flatnonzero(times[1:] < times[:-1]) + 1
            if times[0] < last_t:
                raise OutOfOrderTimestamp(first_index)
            if backwards.size:
                raise OutOfOrderTimestamp(first_index + int(backwards[0]))
            assembler.append(times, *codes.T)
            return float(times[-1]), len(times)
    lines = chunk.split("\n")[:-1]
    events = list(_parse_lines(lines, first_index, last_t))
    assembler.add_events(events)
    return (events[-1].timestamp if events else last_t), len(lines)


# Characters of the shortest valid record, {"t":0,"c":"a","sc":"b","pid":0,"ret":0,"bytes":0}.
# UTF-8 spends at least a byte on each, so a file of n bytes holds at most
# n // _MIN_RECORD_CHARS + 1 events.
_MIN_RECORD_CHARS = 50


def read_trace_file(path) -> EventBlock:
    """All events of a trace file, as one block (see the module docstring)."""
    # An undecodable byte reads as a lone surrogate, which no canonical line
    # holds and `_parse_lines` reports as its line's error.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        # a FIFO's size reads 0, and the columns grow as its events arrive
        assembler = _BlockAssembler(os.fstat(fh.fileno()).st_size // _MIN_RECORD_CHARS + 1)
        line_no = 0
        last_t = -math.inf
        while chunk := fh.read(CHUNK_SIZE):
            if not chunk.endswith("\n"):
                chunk += fh.readline()
                if not chunk.endswith("\n"):
                    chunk += "\n"
            last_t, lines = _add_chunk(assembler, chunk, line_no, last_t)
            line_no += lines
    return assembler.build()


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
