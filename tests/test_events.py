import gc
import io
import json
import math
import os
import re
import threading
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaeguard import events as events_module
from vaeguard.errors import MalformedRecord, OutOfOrderTimestamp
from vaeguard.events import (
    EventBlock,
    ForensicEvent,
    as_block,
    compact_json,
    format_event_record,
    parse_event_record,
    read_trace,
    read_trace_file,
    write_trace,
    write_trace_file,
)
from vaeguard.pipeline import summarize_trace
from vaeguard.publisher import PublishAction, PublishMode
from vaeguard.scenarios import CPUMINER_PHASES, ScenarioConfig, gen_baseline, gen_cpuminer_scenario
from vaeguard.summarize import IntervalKey


def test_parse_basic_record():
    line = '{"t":1.5,"c":"nginx-1","sc":"openat","pid":42,"ret":3,"bytes":0}'
    event = parse_event_record(line)
    assert event == ForensicEvent(1.5, "nginx-1", "openat", 42, 3, 0)


def test_parse_rejects_negative_timestamp():
    line = '{"t":-1,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":0}'
    with pytest.raises(MalformedRecord):
        parse_event_record(line)


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[1, 2]",
        '{"t":1.0,"c":"a","sc":"openat","pid":1,"ret":0}',  # missing bytes
        '{"t":"x","c":"a","sc":"openat","pid":1,"ret":0,"bytes":0}',
        '{"t":1.0,"c":"","sc":"openat","pid":1,"ret":0,"bytes":0}',
        '{"t":1.0,"c":"a","sc":"","pid":1,"ret":0,"bytes":0}',
        '{"t":1.0,"c":"a","sc":"openat","pid":-1,"ret":0,"bytes":0}',
        '{"t":1.0,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":-4}',
        '{"t":1.0,"c":"a","sc":"openat","pid":1.5,"ret":0,"bytes":0}',
        '{"t":true,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":0}',
        pytest.param(
            '{"t":%s,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":0}' % ("9" * 400),
            id="t-overflows-float",
        ),
        pytest.param(
            '{"t":1.0,"c":"a","sc":"openat","pid":%s,"ret":0,"bytes":0}' % ("1" * 5000),
            id="pid-past-int-digit-limit",
        ),
        pytest.param("[" * 100_000, id="nesting-past-recursion-limit"),
        pytest.param(
            '{"t":1.0,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":%s}' % ("9" * 400),
            id="bytes-past-size_t",
        ),
        pytest.param(
            '{"t":1.0,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":%d}' % 2**64,
            id="bytes-at-2**64",
        ),
    ],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(MalformedRecord) as parsed:
        parse_event_record(line, line_no=1)
    valid = '{"t":0.5,"c":"a","sc":"openat","pid":1,"ret":0,"bytes":0}'
    with pytest.raises(MalformedRecord) as read:
        list(read_trace(io.StringIO(f"{valid}\n{line}\n")))
    assert (read.value.line_no, read.value.reason) == (1, parsed.value.reason)


def test_malformed_record_carries_line_number():
    with pytest.raises(MalformedRecord) as excinfo:
        parse_event_record("nope", line_no=17)
    assert excinfo.value.line_no == 17


def test_read_empty_source():
    assert list(read_trace(io.StringIO(""))) == []


def test_read_three_valid_lines_in_order():
    events = [
        ForensicEvent(0.0, "c", "socket", 1, 0, 0),
        ForensicEvent(0.5, "c", "openat", 1, 0, 0),
        ForensicEvent(2.0, "c", "close", 1, 0, 0),
    ]
    buffer = io.StringIO()
    assert write_trace(events, buffer) == 3
    buffer.seek(0)
    assert list(read_trace(buffer)) == events


def test_read_rejects_out_of_order_timestamps():
    buffer = io.StringIO()
    write_trace(
        [
            ForensicEvent(1.0, "c", "socket", 1, 0, 0),
            ForensicEvent(0.5, "c", "openat", 1, 0, 0),
        ],
        buffer,
    )
    buffer.seek(0)
    with pytest.raises(OutOfOrderTimestamp) as excinfo:
        list(read_trace(buffer))
    assert excinfo.value.index == 1


def test_written_file_ends_with_newline():
    buffer = io.StringIO()
    write_trace([ForensicEvent(0.0, "c", "socket", 1, 0, 0)], buffer)
    assert buffer.getvalue().endswith("\n")


def test_round_trip_on_generated_trace():
    """serialize(parse(line)) reproduces the writer's bytes exactly."""
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=30.0)))
    assert len(events) >= 1000
    lines = [format_event_record(event) for event in events[:1000]]
    for i, line in enumerate(lines):
        assert format_event_record(parse_event_record(line, i)) == line


def test_generated_trace_reads_back_identically():
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=20.0)))
    buffer = io.StringIO()
    write_trace(events, buffer)
    buffer.seek(0)
    assert list(read_trace(buffer)) == events


def test_summarize_trace_groups_by_container():
    events = sorted(
        list(gen_baseline(ScenarioConfig(seed=1, duration_s=10.0, container_id="a")))
        + list(gen_baseline(ScenarioConfig(seed=2, duration_s=10.0, container_id="b"))),
        key=lambda e: e.timestamp,
    )
    summaries = summarize_trace(events, 30.0)
    assert set(summaries) == {"a", "b"}


# -- read_trace against per-line parsing ----------------------------------------

_TIMESTAMPS = st.one_of(st.floats(0.0, 1e3, allow_nan=False), st.integers(0, 1000))
_VALID_TOKENS = {
    "c": st.sampled_from(['"web-0"', '"db-1"', '"\\u00e9"', '"\\u00e9t\\u00e9"']),
    "sc": st.sampled_from(['"openat"', '"close"', '"futex"', '"clone3"']),
    "pid": st.integers(0, 2**40).map(str),
    "ret": st.integers(-(2**40), 2**40).map(str),
    "bytes": st.one_of(st.integers(0, 2**40), st.integers(2**64 - 2**20, 2**64 - 1)).map(str),
}
_BAD_TOKENS = st.sampled_from(
    [
        "-1", "9" * 400, "true", "1.5", "NaN", "1e400", "-0.0", '""', "null", "false",
        "-2.5", '"x"', "[]", "{}", "Infinity", "-Infinity", "-" + "9" * 400, "1" * 5000,
    ]
)


@st.composite
def _record_text(draw, timestamp, mutation="none"):
    tokens = {name: draw(strategy) for name, strategy in _VALID_TOKENS.items()}
    tokens["t"] = repr(timestamp)
    if mutation == "value":
        tokens[draw(st.sampled_from(["t", "pid", "bytes", "ret", "c", "sc"]))] = draw(_BAD_TOKENS)
    elif mutation == "drop":
        del tokens[draw(st.sampled_from(sorted(tokens)))]
    elif mutation == "extra":
        tokens["note"] = draw(_BAD_TOKENS)
    order = draw(st.permutations(sorted(tokens)))
    return "{" + ",".join(f'"{name}":{tokens[name]}' for name in order) + "}"


@st.composite
def _faulty_lines(draw):
    """One or two lines holding a mutated, split, joined or foreign record."""
    timestamp = draw(_TIMESTAMPS)
    kind = draw(
        st.sampled_from(["value", "value", "value", "drop", "extra", "split", "join", "noise"])
    )
    if kind in ("value", "drop", "extra"):
        return [draw(_record_text(timestamp, kind))]
    text = draw(_record_text(timestamp))
    if kind == "split":
        cut = draw(st.integers(0, len(text)))
        return [text[:cut], text[cut:]]
    if kind == "join":
        separator = draw(st.sampled_from([",", "", " "]))
        return [text + separator + draw(_record_text(draw(_TIMESTAMPS)))]
    # text a UTF-8 file can hold: no lone surrogates
    return [draw(st.text(st.characters(blacklist_characters="\r\n", codec="utf-8"), max_size=12))]


@st.composite
def _trace_lines(draw):
    """Valid records, mostly in time order, with blank and faulty lines mixed in."""
    timestamps = draw(st.lists(_TIMESTAMPS, max_size=10))
    if draw(st.booleans()):
        timestamps.sort()
    lines = [draw(_record_text(t)) for t in timestamps]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", "  ", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    for _ in range(draw(st.integers(0, 2))):
        position = draw(st.integers(0, len(lines)))
        lines[position:position] = draw(_faulty_lines())
    return lines


def _read_line_by_line(source):
    """Reference reader: per-line parse_event_record plus the order check,
    and "not UTF-8" for a line holding a lone surrogate (how an undecodable
    byte reads)."""
    events = []
    last_t = -math.inf
    for index, line in enumerate(source):
        stripped = line.strip()
        if not stripped:
            continue
        if any("\ud800" <= char <= "\udfff" for char in stripped):
            raise MalformedRecord(index, "not UTF-8")
        event = parse_event_record(stripped, line_no=index)
        if event.timestamp < last_t:
            raise OutOfOrderTimestamp(index)
        last_t = event.timestamp
        events.append(event)
    return events


def _outcome(reader, text):
    try:
        # repr tells 1 from 1.0 and keeps field types in the comparison
        return ("events", repr(list(reader(io.StringIO(text)))))
    except MalformedRecord as exc:
        return ("malformed", exc.line_no, exc.reason)
    except OutOfOrderTimestamp as exc:
        return ("out-of-order", exc.index)


@settings(max_examples=300, deadline=None)
@given(_trace_lines())
def test_read_trace_matches_line_by_line_parsing(lines):
    text = "".join(line + "\n" for line in lines)
    assert _outcome(read_trace, text) == _outcome(_read_line_by_line, text)


# -- read_trace_file: columnar chunks against the line reader -------------------

# Only values the writer puts in canonical form: the escaped "\u00e9t\u00e9"
# and 20-digit byte counts are drawn by the near-miss and line-reader parts.
_CANONICAL_EVENTS = st.builds(
    ForensicEvent,
    _TIMESTAMPS.map(float),
    st.sampled_from(["web-0", "db-1", "a b"]),
    st.sampled_from(["openat", "close", "futex", "clone3"]),
    st.integers(0, 2**40),
    st.integers(-(2**40), 2**40),
    st.integers(0, 2**40),
)


# Field texts that are almost canonical: float() or int() would read many of
# them, json reads some of them, and the two may disagree.
_NEAR_MISSES = {
    "t": ["01.5", "1.", ".5", "1e5", "1E+2", "-0.0", "1_0", " 1", "+1", "\u0661",
          "1e400", "Infinity", "NaN", "0x10", "1" * 40, "2.5e-3",
          # each side of each digit limit of the line start's timestamp
          "1" * 30, "1" * 31, "0.5" + "0" * 29, "0.5" + "0" * 30,
          "5e-001", "5e-0001", "1e-300", "1e-1000"],
    "c": ['"a\\"b"', '"a\\nb"', '"\x01"', '"\x7f"', '""', "1", '"\\u00e9t\\u00e9"'],
    "sc": ['"open\\"at"', '"\x00"', '""', '"open at"'],
    "pid": ["01", "-0", "1" * 19, "\u0661", "1.0", "true", "+1"],
    "ret": ["-0", "-01", "9" * 19, "-" + "9" * 19],
    "bytes": ["9" * 19, str(2**64), str(2**64 - 1), str(2**64 - 2**20), "0" * 2, "-0"],
}


_FIELDS_IN_ORDER = ("t", "c", "sc", "pid", "ret", "bytes")


@st.composite
def _near_canonical_line(draw):
    event = draw(_CANONICAL_EVENTS)
    texts = dict(zip(_FIELDS_IN_ORDER, map(json.dumps, event)))
    name = draw(st.sampled_from(sorted(_NEAR_MISSES)))
    texts[name] = draw(st.sampled_from(_NEAR_MISSES[name]))
    return "{" + ",".join(f'"{k}":{v}' for k, v in texts.items()) + "}"


@st.composite
def _mixed_trace_text(draw):
    """Runs of canonical records (the writer's form) mixed with the lines of
    `_trace_lines`, which hold blank, reordered, escaped and faulty records,
    and with records in the canonical layout holding one near-miss value."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["canonical", "near-miss", "line reader"]))
        if kind == "line reader":
            lines += draw(_trace_lines())
        elif kind == "near-miss":
            lines += draw(st.lists(_near_canonical_line(), min_size=1, max_size=3))
        else:
            run = draw(st.lists(_CANONICAL_EVENTS, max_size=12))
            if draw(st.booleans()):
                run.sort(key=lambda e: e.timestamp)
            lines += [format_event_record(e) for e in run]
    text = "".join(line + "\n" for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # no newline after the last record
    return text


@pytest.mark.parametrize(
    "field, token",
    [(field, token) for field, tokens in sorted(_NEAR_MISSES.items()) for token in tokens],
)
def test_near_canonical_value_reads_as_the_line_reader_reads_it(tmp_path, field, token):
    file_outcome, line_outcome = _near_canonical_outcomes(tmp_path, field, token)
    assert file_outcome == line_outcome


def test_most_near_canonical_timestamps_read_as_events(tmp_path):
    """Between neighbours at t 0.0 and 1e300, every timestamp token that is
    a number in range reads as an event, so the test above compares the
    values both readers parsed, not only where an order check failed."""
    outcomes = [_near_canonical_outcomes(tmp_path, "t", token)[0] for token in _NEAR_MISSES["t"]]
    kinds = [outcome[0] for outcome in outcomes]
    assert kinds.count("events") == 14
    assert kinds.count("malformed") == len(kinds) - 14


def _near_canonical_outcomes(tmp_path, field, token):
    """What read_trace_file and the line reader make of a record in the
    canonical layout holding `token` as its `field`, between two canonical
    records at t 0.0 and 1e300."""
    fields = ("web-0", "openat", 7, -2, 9)
    valid = [format_event_record(ForensicEvent(t, *fields)) for t in (0.0, 1e300)]
    texts = dict(zip(_FIELDS_IN_ORDER, map(json.dumps, (0.5, *fields))))
    texts[field] = token
    near = "{" + ",".join(f'"{k}":{v}' for k, v in texts.items()) + "}"
    text = f"{valid[0]}\n{near}\n{valid[1]}\n"
    path = tmp_path / "trace.ndjson"
    path.write_text(text, encoding="utf-8", newline="")
    return _outcome_of_file(path), _outcome(read_trace, text)


def _outcome_of_file(path):
    try:
        return ("events", repr(list(read_trace_file(path))))
    except MalformedRecord as exc:
        return ("malformed", exc.line_no, exc.reason)
    except OutOfOrderTimestamp as exc:
        return ("out-of-order", exc.index)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar") / "trace.ndjson"


# Where to put one undecodable byte: (line, "own line" or "in string", which string).
_UNDECODABLE = st.none() | st.tuples(
    st.integers(min_value=0), st.sampled_from(["own line", "in string"]), st.integers(min_value=0)
)


def _in_writer_form(line):
    try:
        return format_event_record(parse_event_record(line)) == line
    except MalformedRecord:
        return False


def _with_undecodable_byte(text, spoil):
    """`text` as bytes with a 0xff byte placed by `spoil`, and the outcome a
    reader owes it: the error of the lines before the spoiled one if they
    fail, else that line's "not UTF-8". A byte "in string" goes into a
    string value of a line in the writer's form when there is one."""
    lines = text.split("\n")
    line_no, where, which = spoil
    if where == "own line":
        index = line_no % len(lines)
        lines.insert(index, "\udcff")
    else:
        written = [i for i, line in enumerate(lines) if _in_writer_form(line)]
        candidates = written or range(len(lines))
        index = candidates[line_no % len(candidates)]
        line = lines[index]
        starts = [m.end() for m in re.finditer(':"', line)] or [0]
        cut = starts[which % len(starts)]
        lines[index] = line[:cut] + "\udcff" + line[cut:]
    before = _outcome(read_trace, "".join(line + "\n" for line in lines[:index]))
    expected = before if before[0] != "events" else ("malformed", index, "not UTF-8")
    return "\n".join(lines).encode("utf-8", "surrogateescape"), expected


class _CoverageSpy:
    """The line-splitting pattern, noting whether a chunk started with a
    line start, which is when the reader goes on to check the chunk's
    bodies and takes its columns from the pieces."""

    pattern = events_module._LINE

    def __init__(self):
        self.covered = False

    def split(self, chunk):
        parts = self.pattern.split(chunk)
        self.covered |= not parts[0]
        return parts


def _tables(block):
    tables = block.tables
    return tables.containers, tables.syscalls, (tables.pids, tables.results, tables.arg_bytes)


_FIFTY_RECORDS = "".join(
    format_event_record(ForensicEvent(float(t), "web-0", "openat", 1, 0, 0)) + "\n"
    for t in range(50)
)


# A record length that makes read_trace_file's size hint 1 event for any file,
# so the columns grow by doubling from one event.
_HINT_OF_ONE = {"_MIN_RECORD_CHARS": 2**62}


# A chunk of new canonical bodies around a line that is valid but not
# canonical, then a chunk that repeats one of those bodies: the line
# reader's events and tables, in its order.
_LINE_READER_CHUNK = (
    format_event_record(ForensicEvent(1.0, "web-0", "openat", 1, 0, 0)) + "\n"
    + '{"t":2.0,"c":"db-1","sc":"close","pid":2,"ret":-1,"bytes": 5}\n'
    + format_event_record(ForensicEvent(3.0, "a b", "futex", 3, 0, 7)) + "\n"
)
_REPEATED_BODY = format_event_record(ForensicEvent(4.0, "web-0", "openat", 1, 0, 0)) + "\n"

_SHORT_BODY = '"c":"a","sc":"b","pid":0,"ret":0,"bytes":0}'

# Lines the line-start pattern may split wrongly or not at all:
# - a line split by a '{"t":' inside it into two bodies that join into one
#   canonical body, beside a body that holds two canonical bodies: joined,
#   the chunk's bodies read as one canonical body each;
# - a blank line and a CRLF line between canonical records;
# - a last record without its newline.
_SPLIT_BODIES = (
    '{"t":1,' + _SHORT_BODY[:-2] + '{"t":2,' + _SHORT_BODY[-2:] + "\n"
    + '{"t":3,' + _SHORT_BODY + "\n" + _SHORT_BODY + "\n"
)
_BLANK_AND_CRLF = "".join(
    line + {2: "\n\n", 4: "\r\n"}.get(i, "\n")
    for i, line in enumerate(_FIFTY_RECORDS.split("\n")[:8])
)
_NO_LAST_NEWLINE = _FIFTY_RECORDS[:-1]


@settings(max_examples=300, deadline=None)
@given(
    text=_mixed_trace_text(), chunk_size=st.integers(1, 400), spoil=_UNDECODABLE,
    hint_of_one=st.booleans(), cache_size=st.sampled_from([1, 2, events_module.BODY_CACHE_SIZE]),
)
@example(
    text=_FIFTY_RECORDS, chunk_size=400, spoil=(49, "in string", 0), hint_of_one=False,
    cache_size=events_module.BODY_CACHE_SIZE,
)
@example(text=_FIFTY_RECORDS, chunk_size=7, spoil=None, hint_of_one=True, cache_size=1)
@example(
    text=_LINE_READER_CHUNK + _REPEATED_BODY, chunk_size=len(_LINE_READER_CHUNK) - 1,
    spoil=None, hint_of_one=False, cache_size=events_module.BODY_CACHE_SIZE,
)
@example(
    text=_SPLIT_BODIES, chunk_size=400, spoil=None, hint_of_one=False,
    cache_size=events_module.BODY_CACHE_SIZE,
)
@example(
    text=_BLANK_AND_CRLF, chunk_size=400, spoil=None, hint_of_one=False,
    cache_size=events_module.BODY_CACHE_SIZE,
)
@example(
    text=_NO_LAST_NEWLINE, chunk_size=400, spoil=None, hint_of_one=False,
    cache_size=events_module.BODY_CACHE_SIZE,
)
def test_read_trace_file_matches_line_by_line_reading(
    trace_path, text, chunk_size, spoil, hint_of_one, cache_size
):
    """Same events and value tables, or the same MalformedRecord line and
    reason, or the same OutOfOrderTimestamp index, with chunk boundaries
    anywhere, the body cache restarting anywhere, and the columns sized
    by the file or grown from one event; with a byte that is not UTF-8,
    the first failing line's error, whatever its kind."""
    if spoil is None:
        trace_path.write_text(text, encoding="utf-8", newline="")
        expected = _outcome(read_trace, text)
    else:
        data, expected = _with_undecodable_byte(text, spoil)
        trace_path.write_bytes(data)
    spy = _CoverageSpy()
    hint = _HINT_OF_ONE if hint_of_one else {}
    with mock.patch.multiple(
        events_module, CHUNK_SIZE=chunk_size, BODY_CACHE_SIZE=cache_size, _LINE=spy, **hint
    ):
        assert _outcome_of_file(trace_path) == expected
        if expected[0] == "events":
            oracle = as_block(list(read_trace(io.StringIO(text))))
            assert _tables(read_trace_file(trace_path)) == _tables(oracle)
    hypothesis.event("columnar chunk taken" if spy.covered else "no columnar chunk")


def test_time_going_back_is_found_wherever_chunks_split(tmp_path):
    path = tmp_path / "trace.ndjson"
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    for position in range(1, len(times)):
        shuffled = times[:position] + [times[position - 1] - 0.5] + times[position:]
        write_trace_file([ForensicEvent(t, "c", "openat", 1, 0, 0) for t in shuffled], path)
        text = path.read_text(encoding="utf-8")
        for chunk_size in range(1, len(text) + 1):
            with mock.patch.object(events_module, "CHUNK_SIZE", chunk_size):
                with pytest.raises(OutOfOrderTimestamp) as excinfo:
                    read_trace_file(path)
            assert excinfo.value.index == position


def test_canonical_chunk_takes_the_columnar_path(tmp_path):
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=20.0)))
    path = tmp_path / "trace.ndjson"
    write_trace_file(events, path)
    with mock.patch.object(events_module, "parse_event_record", side_effect=AssertionError):
        with mock.patch.object(events_module.json, "JSONDecoder", side_effect=AssertionError):
            block = read_trace_file(path)
    assert block == events


def test_event_block_is_a_lazy_sequence_of_events(tmp_path):
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=20.0)))
    path = tmp_path / "trace.ndjson"
    write_trace_file(events, path)
    block = read_trace_file(path)
    assert isinstance(block, EventBlock)
    assert len(block) == len(events)
    assert block == tuple(events) and block == events
    assert block[5] == events[5] and block[-1] == events[-1]
    assert list(block[10:20]) == events[10:20]
    assert np.shares_memory(block[10:20].timestamps, block.timestamps)
    assert hash(block[:3]) == hash(tuple(events[:3]))
    with pytest.raises(ValueError):
        block.timestamps[0] = 1.0


def test_record_texts_are_built_once_per_table_and_cannot_be_written(tmp_path):
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=20.0)))
    path = tmp_path / "trace.ndjson"
    write_trace_file(events, path)
    block = read_trace_file(path)
    tables = block.tables
    assert tables.syscall_texts.tolist() == [f",{compact_json(s)}," for s in tables.syscalls]
    tails = zip(tables.pids, tables.results, tables.arg_bytes)
    assert tables.tail_texts.tolist() == [compact_json(list(t))[1:-1] + "],[" for t in tails]
    for part in (block[10:20], block[::3], block[:0], block.take(np.array([7, 2, 7]))):
        assert part.tables.syscall_texts is tables.syscall_texts
        assert part.tables.tail_texts is tables.tail_texts
    for texts in (tables.syscall_texts, tables.tail_texts):
        assert texts.dtype == object and not texts.flags.writeable
        with pytest.raises(ValueError):
            texts[0] = "x"


@pytest.mark.parametrize(
    "field, name, value",
    [
        ("result", "ret", None),
        ("arg_bytes", "bytes", 10**400),
        ("arg_bytes", "bytes", -1),
        ("arg_bytes", "bytes", 1.5),
        ("pid", "pid", True),
        ("timestamp", "t", "2.5"),
        ("timestamp", "t", True),
        ("timestamp", "t", 10**400),
        ("syscall", "syscall", 1),
        ("syscall", "syscall", ""),
        ("container_id", "container", ["box"]),
        ("container_id", "container", 7),
        ("container_id", "container", ""),
        ("pid", "pid", -1),
    ],
    ids=["ret-none", "bytes-huge", "bytes-negative", "bytes-float", "pid-true", "t-string",
         "t-true", "t-beyond-float", "syscall-int", "syscall-empty", "container-list",
         "container-int", "container-empty", "pid-negative"],
)
def test_a_block_holds_only_what_a_trace_holds(field, name, value):
    """A value no trace holds is a ValueError naming its field, whether the
    block is built by as_block or by an action: never a TypeError or an
    OverflowError, and never stored as some other value."""
    events = [ForensicEvent(0.5, "box", "read", 1, 0, 0)] * 2
    events[1] = events[1]._replace(**{field: value})
    with pytest.raises(ValueError, match=f"^events: every {name} "):
        as_block(events)
    with pytest.raises(ValueError, match=f"^events: every {name} "):
        PublishAction(IntervalKey("box", 0, 30.0), PublishMode.FORENSICS_ONLY, forensics=events)


_SHORTEST_RECORD = '{"t":0,"c":"a","sc":"b","pid":0,"ret":0,"bytes":0}'


@pytest.mark.parametrize("count", [0, 1, 2, 49, 50, 51, 1000])
@pytest.mark.parametrize("last_newline", [True, False])
def test_size_hint_holds_every_event_of_the_shortest_records(tmp_path, count, last_newline):
    """The columns are allocated once, from the file's size: even a file of
    nothing but the shortest valid records never makes them grow."""
    text = "\n".join([_SHORTEST_RECORD] * count) + ("\n" if last_newline and count else "")
    path = tmp_path / "trace.ndjson"
    path.write_text(text, encoding="utf-8", newline="")
    assert len(_SHORTEST_RECORD) == events_module._MIN_RECORD_CHARS
    allocated = []
    real_empty = np.empty

    def recording_empty(*args):
        allocated.append(args)
        return real_empty(*args)

    with mock.patch.object(events_module.np, "empty", side_effect=recording_empty):
        block = read_trace_file(path)
    assert len(block) == count
    assert block == [ForensicEvent(0.0, "a", "b", 0, 0, 0)] * count
    capacity = len(text.encode("utf-8")) // len(_SHORTEST_RECORD) + 1
    assert [shape for shape, _ in allocated] == [capacity] * 4
    assert block.timestamps.base.shape == (capacity,)


def test_columns_grow_when_the_hint_is_short(tmp_path):
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=20.0)))
    path = tmp_path / "trace.ndjson"
    write_trace_file(events, path)
    with mock.patch.multiple(events_module, CHUNK_SIZE=997, **_HINT_OF_ONE):
        block = read_trace_file(path)
    assert block == events
    assert block.timestamps.base.shape[0] >= len(events)
    with pytest.raises(ValueError):
        block.tail_codes[0] = 1


def test_reading_leaves_no_garbage(tmp_path):
    """Reading makes no reference cycle, so nothing it built waits for the
    cycle collector: a cpuminer trace with more distinct record bodies
    than the body cache holds, so the cache restarts during the read."""
    schedule = tuple((10.0 * i, 10.0 * (i + 1), label) for i, label in enumerate(CPUMINER_PHASES))
    path = tmp_path / "trace.ndjson"
    write_trace_file(
        gen_cpuminer_scenario(ScenarioConfig(seed=11, duration_s=60.0, phase_schedule=schedule)),
        path,
    )
    bodies = {line.split(",", 1)[1] for line in path.read_text(encoding="utf-8").splitlines()}
    assert len(bodies) > events_module.BODY_CACHE_SIZE
    gc.collect()
    gc.disable()
    try:
        read_trace_file(path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _read_through_fifo(tmp_path, data: bytes):
    """read_trace_file's outcome on a FIFO fed `data` by a writer thread."""
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at an error
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return _outcome_of_file(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_reads_as_the_same_file_does(tmp_path):
    """A FIFO's size reads 0, so its columns grow from one event as the
    events arrive; the block, and any error and its line, are the file's."""
    events = list(gen_baseline(ScenarioConfig(seed=3, duration_s=20.0)))
    path = tmp_path / "trace.ndjson"
    write_trace_file(events, path)
    data = path.read_bytes()
    assert _read_through_fifo(tmp_path, data) == ("events", repr(list(events)))
    lines = data.split(b"\n")
    faulty = b"\n".join(lines[:500] + [b'{"t":1.0,"c":"web-0"}'] + lines[500:])
    path.write_bytes(faulty)
    expected = _outcome_of_file(path)
    assert expected == ("malformed", 500, "missing fields: sc, pid, ret, bytes")
    (tmp_path / "trace.fifo").unlink()
    assert _read_through_fifo(tmp_path, faulty) == expected
