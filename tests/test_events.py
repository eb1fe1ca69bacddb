import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaeguard.errors import MalformedRecord, OutOfOrderTimestamp
from vaeguard.events import (
    ForensicEvent,
    format_event_record,
    parse_event_record,
    read_trace,
    write_trace,
)
from vaeguard.pipeline import summarize_trace
from vaeguard.scenarios import ScenarioConfig, gen_baseline


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
    events = gen_baseline(ScenarioConfig(seed=3, duration_s=30.0))
    assert len(events) >= 1000
    lines = [format_event_record(event) for event in events[:1000]]
    for i, line in enumerate(lines):
        assert format_event_record(parse_event_record(line, i)) == line


def test_generated_trace_reads_back_identically():
    events = gen_baseline(ScenarioConfig(seed=3, duration_s=20.0))
    buffer = io.StringIO()
    write_trace(events, buffer)
    buffer.seek(0)
    assert list(read_trace(buffer)) == events


def test_summarize_trace_groups_by_container():
    events = sorted(
        gen_baseline(ScenarioConfig(seed=1, duration_s=10.0, container_id="a"))
        + gen_baseline(ScenarioConfig(seed=2, duration_s=10.0, container_id="b")),
        key=lambda e: e.timestamp,
    )
    summaries = summarize_trace(events, 30.0)
    assert set(summaries) == {"a", "b"}


# -- read_trace against per-line parsing ----------------------------------------

_TIMESTAMPS = st.one_of(st.floats(0.0, 1e3, allow_nan=False), st.integers(0, 1000))
_VALID_TOKENS = {
    "c": st.sampled_from(['"web-0"', '"db-1"', '"\\u00e9"']),
    "sc": st.sampled_from(['"openat"', '"close"', '"futex"', '"clone3"']),
    "pid": st.integers(0, 2**40).map(str),
    "ret": st.integers(-(2**40), 2**40).map(str),
    "bytes": st.integers(0, 2**40).map(str),
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
    return [draw(st.text(st.characters(blacklist_characters="\r\n"), max_size=12))]


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
    """Reference reader: per-line parse_event_record plus the order check."""
    events = []
    last_t = -math.inf
    for index, line in enumerate(source):
        stripped = line.strip()
        if not stripped:
            continue
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
