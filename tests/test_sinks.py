import http.client
import io
import json
import math
import os
import threading
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaeguard import publisher as publisher_module
from vaeguard import sinks as sinks_module
from vaeguard.errors import SinkUnavailable
from vaeguard.events import ForensicEvent
from vaeguard.publisher import (
    PublishAction,
    PublishMode,
    action_to_documents,
    emit,
    serialize_action,
)
from vaeguard.sinks import BULK_CONTENT_TYPE, FileSink, HttpBulkSink
from vaeguard.summarize import IntervalKey
from vaeguard.thresholds import HeuristicThreshold, StabilityVerdict, assess
from vaeguard.vae import LatentRecord


def accumulating(i=0):
    return PublishAction(key=IntervalKey("box", i, 30.0), mode=PublishMode.ACCUMULATING)


def forensics(count, i=0):
    events = tuple(
        ForensicEvent(i * 30.0 + j, "box", "openat", j, 0, 0) for j in range(count)
    )
    return PublishAction(
        key=IntervalKey("box", i, 30.0), mode=PublishMode.FORENSICS_ONLY, forensics=events
    )


def drift(count, i=0):
    key = IntervalKey("box", i, 30.0)
    latent = LatentRecord(np.zeros(2), np.zeros(2), 2.0)
    return PublishAction(
        key=key, mode=PublishMode.LATENT_PLUS_FORENSICS, latent=latent,
        forensics=forensics(count, i).forensics, verdict=assess(latent, HeuristicThreshold(1.0)),
    )


def parse_ndjson(body: bytes):
    return [json.loads(line) for line in body.decode("utf-8").splitlines()]


def _bulk_posts(actions, batch_size=500, latent_index="lat", forensics_index="raw"):
    """The bodies an HttpBulkSink POSTs for `actions`, closed after the last."""
    transport = _Transport()
    original = urllib.request.urlopen
    urllib.request.urlopen = transport
    try:
        sink = HttpBulkSink("http://bulk.test", batch_size=batch_size)
        for action in actions:
            sink.publish(action, latent_index, forensics_index)
        sink.close()
    finally:
        urllib.request.urlopen = original
    return transport.delivered


def _bulk_body(action, latent_index="lat", forensics_index="raw") -> bytes:
    return b"".join(_bulk_posts([action], 500, latent_index, forensics_index))


def test_bulk_two_documents_is_four_lines_with_trailing_newline():
    body = _bulk_body(forensics(1))
    assert body.endswith(b"\n")
    lines = body.decode("utf-8").split("\n")
    assert len(lines) == 5 and lines[-1] == ""


def test_bulk_single_document():
    body = _bulk_body(accumulating())
    assert len(body.decode("utf-8").split("\n")) == 3


def test_bulk_round_trips_through_ndjson_parser():
    rows = parse_ndjson(_bulk_body(forensics(1, 3), "latent"))
    assert rows[0] == {"index": {"_index": "latent", "_id": "box/3/0"}}
    assert rows[1] == {
        "container": "box", "interval": 3, "interval_start": 90.0, "kind": "forensics"
    }
    assert rows[2] == {"index": {"_index": "raw", "_id": "box/3/1"}}
    assert rows[3] == {
        "container": "box", "interval": 3, "interval_start": 90.0,
        "t": 90.0, "syscall": "openat", "pid": 0, "ret": 0, "bytes": 0,
    }


# -- the encoders against json.dumps --------------------------------------------

_COMPACT = (",", ":")
# characters JSON must escape, and ones it must pass through or \u-escape
_AWKWARD = '"\\/\x00\x08\x1f\x7f\n\t\xe9\xa0\ufeff\u2028\ud800\udfff\U0010fc00\U0001f600'
_NAMES = st.text(st.sampled_from(_AWKWARD) | st.characters(exclude_categories=()), max_size=12)
# container ids and syscall names, which a trace never leaves empty
_IDS = _NAMES.filter(bool)
# where _round8 changes how a value reads: signed zero, integral values, the
# exponent switch of .8g (1e8) and of repr (1e16), and small magnitudes; and
# where a "%.8g" token stops being the text of the float it reads as: the
# largest subnormal and the smallest normal, subnormals and 1e-300 (e-3xx),
# rounding up to 1e-4 (fixed notation) and to 1e8 (e+), and 1e16 from below
_EDGE_VALUES = [
    0.0, -0.0, 1.0, -3.0, 12345678.0, 1e8, 123456789.0, 99999999.5, 1e15, 1e16,
    1.2345678e16, 1e-4, 1e-5, -1.5e-5, 5e-324, 1.7976931348623157e308,
    2.225073858507201e-308, 2.2250738585072014e-308, 2.5e-322, 1e-300, 9.99999995e-5,
    99999999.4, 9.9999999e15,
]
_EDGES = st.sampled_from(_EDGE_VALUES)
_VALUES = _EDGES | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _actions(draw):
    mode = draw(st.sampled_from(list(PublishMode)))
    # an action without forensics holds no block, so its key may name any container
    forensic = mode in (PublishMode.FORENSICS_ONLY, PublishMode.LATENT_PLUS_FORENSICS)
    key = IntervalKey(
        draw(_IDS if forensic else _NAMES),
        draw(st.integers(0, 2**53)),
        draw(st.floats(1e-3, 1e6, exclude_min=True)),
    )
    latent = verdict = forensics = None
    if mode in (PublishMode.LATENT_ONLY, PublishMode.LATENT_PLUS_FORENSICS):
        dim = draw(st.integers(1, 10))
        mu, logvar = (np.array(draw(st.lists(_VALUES, min_size=dim, max_size=dim))) for _ in "ml")
        latent = LatentRecord(mu, logvar, draw(_VALUES))
        verdict = StabilityVerdict(draw(_VALUES), mode is PublishMode.LATENT_ONLY)
    if forensic:
        times = sorted(draw(st.lists(st.floats(0, 1e12), min_size=1, max_size=5)))
        forensics = tuple(
            ForensicEvent(
                t, key.container_id, draw(_IDS), draw(st.integers(0, 2**31)),
                draw(st.integers(-(2**31), 2**31)), draw(st.integers(0, 2**64 - 1)),
            )
            for t in times
        )
    return PublishAction(key, mode, latent, forensics, verdict)


def _reference_line(action) -> bytes:
    """What serialize_action is specified to write, through json.dumps."""
    doc = {
        "kind": action.mode.value,
        "container": action.key.container_id,
        "interval": action.key.interval_index,
        "interval_len": action.key.length,
    }
    if action.latent is not None:
        doc["latent"] = {
            "mu": [float(f"{v:.8g}") for v in action.latent.mu],
            "logvar": [float(f"{v:.8g}") for v in action.latent.logvar],
            "recon_error": float(f"{action.latent.recon_error:.8g}"),
        }
    if action.verdict is not None:
        doc["verdict"] = {
            "threshold": float(f"{action.verdict.threshold:.8g}"),
            "stable": action.verdict.stable,
        }
    if action.forensics is not None:
        doc["events"] = [list(row) for row in action.forensics.rows()]
    return (json.dumps(doc, separators=_COMPACT) + "\n").encode("utf-8")


def _reference_bulk(documents) -> bytes:
    lines = []
    for index_name, doc_id, source in documents:
        lines.append(json.dumps({"index": {"_index": index_name, "_id": doc_id}}, separators=_COMPACT))
        lines.append(json.dumps(source, separators=_COMPACT))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(action=_actions(), latent_index=_NAMES, forensics_index=_NAMES)
def test_encoders_write_what_json_dumps_writes(action, latent_index, forensics_index):
    assert serialize_action(action) == _reference_line(action)
    documents = action_to_documents(action, latent_index, forensics_index)
    assert _bulk_body(action, latent_index, forensics_index) == _reference_bulk(documents)
    # the head document carries the line's rounded latent and verdict fields
    head, line = documents[0][2], json.loads(_reference_line(action))
    shipped = {**line.get("latent", {}), **line.get("verdict", {})}
    assert json.dumps({name: head[name] for name in shipped}) == json.dumps(shipped)


def test_every_edge_value_writes_what_json_dumps_writes():
    """Each edge value, and its negation, in every number of a head: the
    latent arrays, the error and the threshold."""
    values = [*_EDGE_VALUES, *(-v for v in _EDGE_VALUES), math.nan, math.inf, -math.inf]
    for value in values:
        latent = LatentRecord(np.array(values), np.array([value]), value)
        action = PublishAction(
            IntervalKey("box", 0, 30.0), PublishMode.LATENT_ONLY, latent,
            verdict=StabilityVerdict(value, True),
        )
        assert serialize_action(action) == _reference_line(action)
        assert _bulk_body(action) == _reference_bulk(action_to_documents(action, "lat", "raw"))


# Syscall names a trace may hold: a string holding "],[" or "," makes no
# row text that splitting could find. Tails hold what a trace holds, exact
# ints with pid >= 0 and bytes in [0, 2**64), with the extremes drawn often.
_HOSTILE_TEXT = st.lists(
    st.sampled_from(['],[', ',', '"', '\\', '"],["', "\xe9", "\u2028", "\U0001f600", "x"]),
    min_size=1,
    max_size=4,
).map("".join)
_PIDS = st.integers(0, 2**70) | st.just(2**70)
_RETS = st.integers(-(2**70), 2**70) | st.sampled_from([-(2**63) - 1, 10**30])
_BYTES = st.integers(0, 2**64 - 1) | st.just(2**64 - 1)
_HOSTILE_ROWS = st.lists(st.tuples(_HOSTILE_TEXT | _IDS, _PIDS, _RETS, _BYTES), max_size=8)


@settings(max_examples=300, deadline=None)
@given(rows=_HOSTILE_ROWS)
def test_a_parsed_record_of_hostile_values_writes_what_json_dumps_writes(rows):
    """Syscall names with quotes, backslashes, "],[" and non-ASCII text, and
    tails of the extreme ints a trace admits, as parse_action reads them
    from a record, are written back as json.dumps writes them."""
    events = [[float(t), *row] for t, row in enumerate(rows)]
    line = json.dumps(
        {"kind": "forensics", "container": "box", "interval": 0, "interval_len": 30.0,
         "events": events}
    )
    action = publisher_module.parse_action(line.encode("utf-8"))
    assert serialize_action(action) == _reference_line(action)


_HOSTILE_EVENTS = [
    ForensicEvent(0.0, "box", '"],["', 0, -1, 2**64 - 1),
    ForensicEvent(0.0, "box", "caf\xe9\\", 1, 10**30, 0),
    ForensicEvent(0.0, "box", "a,b", 2**70, 0, 1),
    ForensicEvent(0.0, "box", '\u2028"\U0001f600', 2**70, -(2**63) - 1, 2**64 - 1),
    ForensicEvent(0.0, "box", "openat", 7, 0, 1),
]


@pytest.mark.parametrize("count", [0, 1, 4096, 4097])
def test_hostile_blocks_of_any_size_write_what_json_dumps_writes(count):
    """Around the 4,096 events of a piece, with the hostile syscalls and
    extreme tails a trace admits."""
    events = tuple(
        _HOSTILE_EVENTS[i % len(_HOSTILE_EVENTS)]._replace(timestamp=i * 1e-3)
        for i in range(count)
    )
    action = PublishAction(
        IntervalKey("box", 0, 30.0), PublishMode.FORENSICS_ONLY, forensics=events
    )
    assert serialize_action(action) == _reference_line(action)


def test_a_drift_record_encodes_no_syscall_or_tail(monkeypatch):
    """A drift's syscalls and tails are looked up in the texts its tables
    hold: writing the record encodes its head and each piece's timestamps."""
    action = drift(4097, 1)
    calls = []
    real_encode = publisher_module.compact_json

    def counting_encode(value):
        calls.append(type(value).__name__)
        return real_encode(value)

    monkeypatch.setattr(publisher_module, "compact_json", counting_encode)
    serialize_action(action)
    assert calls == ["dict", "list", "list"]


def test_a_drift_s_bulk_lines_encode_no_syscall_or_tail(monkeypatch):
    """The bulk twin of the record's test: a drift's event lines look their
    syscall text up in its tables and write its exact-int tails with str,
    so encoding them calls compact_json for the key's names, the head's
    kind and each piece's timestamps, never per event. The head's latent
    and verdict fields are written from text, with no call for a finite
    value."""
    monkeypatch.setattr(urllib.request, "urlopen", _Transport())
    action = drift(4097, 1)
    calls = []
    real_encode = publisher_module.compact_json

    def counting_encode(value):
        calls.append(type(value).__name__)
        return real_encode(value)

    monkeypatch.setattr(publisher_module, "compact_json", counting_encode)
    monkeypatch.setattr(sinks_module, "compact_json", counting_encode)
    sink = HttpBulkSink("http://bulk.test")
    sink.publish(action, "lat", "raw")
    # the container and both index names, the kind, then the timestamps of
    # each of the two pieces
    assert calls == ["str", "str", "str", "str", "list", "list"]
    calls.clear()
    sink.publish(drift(3, 2), "lat", "raw")  # the sink knows the names' texts by now
    assert calls == ["str", "list"]
    sink.close()


def _reference_posts(actions, batch_size, latent_index="lat", forensics_index="raw"):
    """The bodies the bulk sink is specified to POST: the documents cut into
    requests of `batch_size`, the ones waiting flushed after each drift
    and at close, each encoded through json.dumps."""
    requests, waiting = [], []
    for action in actions:
        waiting += action_to_documents(action, latent_index, forensics_index)
        while len(waiting) >= batch_size:
            requests.append(waiting[:batch_size])
            waiting = waiting[batch_size:]
        if action.mode is PublishMode.LATENT_PLUS_FORENSICS and waiting:
            requests.append(waiting)
            waiting = []
    if waiting:
        requests.append(waiting)
    return [_reference_bulk(documents) for documents in requests]


@settings(max_examples=200, deadline=None)
@given(
    actions=st.lists(_actions(), min_size=1, max_size=6),
    batch_size=st.sampled_from([1, 3, 500]),
    latent_index=_NAMES,
    forensics_index=_NAMES,
)
def test_bulk_posts_write_what_json_dumps_writes(
    actions, batch_size, latent_index, forensics_index
):
    """Every POST body is the json.dumps encoding of the documents it holds,
    and the requests are cut at the same documents."""
    assert _bulk_posts(actions, batch_size, latent_index, forensics_index) == _reference_posts(
        actions, batch_size, latent_index, forensics_index
    )


@pytest.mark.parametrize("batch_size", [1, 3, 500])
@pytest.mark.parametrize("count", [0, 1, 4096, 4097])
def test_hostile_blocks_of_any_size_post_what_json_dumps_writes(count, batch_size):
    """Around the 4,096 events of a piece, with the hostile syscalls and
    extreme tails a trace admits, under a quoted non-ASCII container id;
    with a NaN timestamp and a key whose start overflows to Infinity."""
    events = tuple(
        _HOSTILE_EVENTS[i % len(_HOSTILE_EVENTS)]._replace(
            timestamp=float("nan") if i == 1 else i * 1e-3, container_id='q"\xe9'
        )
        for i in range(count)
    )
    latent = LatentRecord(np.array([0.5, float("nan")]), np.zeros(2), float("inf"))
    actions = [
        PublishAction(IntervalKey('q"\xe9', 3, 30.0), PublishMode.FORENSICS_ONLY, forensics=events),
        PublishAction(IntervalKey("box", 2**53, 1e300), PublishMode.ACCUMULATING),
        PublishAction(
            IntervalKey('q"\xe9', 4, 30.0), PublishMode.LATENT_PLUS_FORENSICS, latent=latent,
            forensics=events, verdict=StabilityVerdict(1.0, False),
        ),
    ]
    assert IntervalKey("box", 2**53, 1e300).start == float("inf")
    assert _bulk_posts(actions, batch_size) == _reference_posts(actions, batch_size)


# -- file sink -----------------------------------------------------------------


def test_file_sink_counts_bytes_exactly(tmp_path):
    sink = FileSink(tmp_path / "out.ndjson")
    actions = (accumulating(0), forensics(2, 1))
    written = [sink.publish(action, "lat", "raw") for action in actions]
    sink.close()
    lines = [serialize_action(action) for action in actions]
    assert written == [len(line) for line in lines]
    assert sink.bytes_written == sum(written)
    assert (tmp_path / "out.ndjson").read_bytes() == b"".join(lines)


def test_file_sink_closed_raises(tmp_path):
    sink = FileSink(tmp_path / "out.ndjson")
    sink.close()
    with pytest.raises(SinkUnavailable):
        sink.publish(accumulating(), "lat", "raw")


class _FailingHandle:
    """A sink's file handle whose `fail_at`-th write (from 1) puts the first
    half of its data on disk and then raises, as a disk that fills up
    partway does; with `truncate_fails`, cutting the file back fails too."""

    def __init__(self, handle, fail_at, truncate_fails=False):
        self._handle = handle
        self.fail_at = fail_at
        self.truncate_fails = truncate_fails
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
            raise OSError(28, "No space left on device")
        return self._handle.write(data)

    def truncate(self, size):
        if self.truncate_fails:
            raise OSError(5, "Input/output error")
        return self._handle.truncate(size)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def test_file_sink_cuts_a_record_that_fails_partway(tmp_path):
    path = tmp_path / "out.ndjson"
    sink = FileSink(path)
    sink.publish(forensics(3, 0), "lat", "raw")
    sink.flush()
    before = path.read_bytes()
    failing = sink._handle = _FailingHandle(sink._handle, fail_at=2)
    with pytest.raises(SinkUnavailable):
        emit(drift(2, 1), sink)
    assert failing.writes == 2
    sink.flush()
    assert path.read_bytes() == before
    # the sink stays open, and the next record starts where the cut one began
    sink._handle = failing._handle
    written = sink.publish(accumulating(2), "lat", "raw")
    sink.close()
    assert path.read_bytes() == before + serialize_action(accumulating(2))
    assert written == len(serialize_action(accumulating(2)))
    assert sink.bytes_written == len(before) + written


def test_file_sink_closes_when_a_failed_record_cannot_be_cut(tmp_path):
    path = tmp_path / "out.ndjson"
    sink = FileSink(path)
    sink._handle = _FailingHandle(sink._handle, fail_at=2, truncate_fails=True)
    action = drift(2, 0)
    with pytest.raises(SinkUnavailable):
        sink.publish(action, "lat", "raw")
    # no later record follows the partial one
    with pytest.raises(SinkUnavailable, match="closed"):
        sink.publish(accumulating(1), "lat", "raw")
    head, rows = list(publisher_module.record_pieces(action))[:2]
    assert path.read_bytes() == head + rows[: len(rows) // 2]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_file_sink_on_a_fifo_writes_records_and_closes_on_a_failed_one(tmp_path):
    """A FIFO cannot be cut back, so a record failing there closes the sink."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    sink = FileSink(fifo)
    action = drift(3, 0)
    assert sink.publish(action, "lat", "raw") == len(serialize_action(action))
    sink._handle = _FailingHandle(sink._handle, fail_at=2)
    with pytest.raises(SinkUnavailable):
        sink.publish(drift(2, 1), "lat", "raw")
    with pytest.raises(SinkUnavailable, match="closed"):
        sink.publish(accumulating(2), "lat", "raw")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received[0].startswith(serialize_action(action))


@pytest.mark.parametrize("rows_per_piece", [1, 2, 3, 4096])
def test_pieces_join_to_the_whole_encodings(tmp_path, monkeypatch, rows_per_piece):
    """Records and bulk bodies are the same bytes, and POSTs hold the same
    documents, however many events a piece holds."""
    actions = [accumulating(0), drift(7, 1), forensics(5, 2), drift(1, 3), forensics(0, 4)]
    whole = [serialize_action(action) for action in actions]
    documents = [action_to_documents(action, "lat", "raw") for action in actions]
    transport = _Transport()
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    monkeypatch.setattr(publisher_module, "_ROWS_PER_PIECE", rows_per_piece)
    assert [serialize_action(action) for action in actions] == whole
    assert [action_to_documents(action, "lat", "raw") for action in actions] == documents
    file_sink = FileSink(tmp_path / "out.ndjson")
    bulk_sink = HttpBulkSink("http://bulk.test", batch_size=3)
    for action, line, docs in zip(actions, whole, documents):
        assert file_sink.publish(action, "lat", "raw") == len(line)
        assert bulk_sink.publish(action, "lat", "raw") == len(_reference_bulk(docs))
    file_sink.close()
    bulk_sink.close()
    assert (tmp_path / "out.ndjson").read_bytes() == b"".join(whole)
    every = [document for docs in documents for document in docs]
    # 1 + 8 documents: three full requests; 6: two more; the drift's 2 are
    # flushed after it, and the last action's head at close
    bounds = [0, 3, 6, 9, 12, 15, 17, 18]
    batches = [every[a:b] for a, b in zip(bounds, bounds[1:])]
    assert transport.delivered == [_reference_bulk(batch) for batch in batches]


def test_a_post_failing_partway_through_a_drift_drops_the_rest_of_it(monkeypatch):
    transport = _Transport([True, False])
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    monkeypatch.setattr(publisher_module, "_ROWS_PER_PIECE", 2)
    sink = HttpBulkSink("http://bulk.test", batch_size=3)
    # pieces: the head and 2 events (POSTed), 2 events, then 1 more (POST fails)
    with pytest.raises(SinkUnavailable):
        emit(drift(5, 0), sink)
    assert transport.attempts == 2
    assert transport.ids() == ["box/0/0", "box/0/1", "box/0/2"]
    assert sink.bytes_written == len(transport.delivered[0])
    # the sink holds nothing of the dropped drift, and goes on
    later = accumulating(1)
    sink.publish(later, "lat", "raw")
    sink.close()
    assert transport.attempts == 3
    assert transport.ids()[3:] == _ids(later)
    assert sink.bytes_written == sum(map(len, transport.delivered))


def test_a_head_only_action_costs_one_encode_call(monkeypatch):
    """One encode_bulk_request call per piece, whose documents are its
    head (when it starts the action) and its events."""
    calls = []
    real_encode = sinks_module.encode_bulk_request

    def counting_encode(action, keys, events, start):
        calls.append((not start) + (0 if events is None else len(events)))
        return real_encode(action, keys, events, start)

    monkeypatch.setattr(sinks_module, "encode_bulk_request", counting_encode)
    monkeypatch.setattr(urllib.request, "urlopen", _Transport())
    sink = HttpBulkSink("http://bulk.test")
    sink.publish(accumulating(0), "lat", "raw")
    assert calls == [1]
    sink.publish(drift(4096, 1), "lat", "raw")  # a drift of one piece: one more call
    assert calls == [1, 4097]
    sink.publish(drift(4097, 2), "lat", "raw")  # one event more: a second piece
    assert calls == [1, 4097, 4097, 1]
    sink.close()


def _traced_peak(publish) -> int:
    tracemalloc.start()
    try:
        publish()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["file", "bulk"])
def test_publishing_a_drift_peaks_flat_in_its_size(tmp_path, monkeypatch, kind):
    """Records and bulk documents are built 4,096 events at a time, so what
    a publish allocates at once does not grow with the drift."""
    # a transport that keeps nothing of what it is sent
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(b"{}"))
    peaks = {}
    for count in (10_000, 50_000):
        action = drift(count, 1)
        if kind == "file":
            sink = FileSink(tmp_path / f"out-{count}.ndjson")
        else:
            sink = HttpBulkSink("http://bulk.test")
        peaks[count] = _traced_peak(lambda: sink.publish(action, "lat", "raw"))
        sink.close()
    assert peaks[50_000] <= 1.5 * peaks[10_000], peaks


# -- http bulk sink --------------------------------------------------------------


def test_http_sink_posts_bulk_body(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint)
    action = forensics(1)
    written = sink.publish(action, "lat", "raw")
    assert requests == []  # buffered until batch_size documents wait, or a flush
    sink.close()
    documents = action_to_documents(action, "lat", "raw")
    assert [index for index, _, _ in documents] == ["lat", "raw"]
    assert [doc_id for _, doc_id, _ in documents] == ["box/0/0", "box/0/1"]
    assert written == len(_reference_bulk(documents)) == sink.bytes_written
    [(path, headers, body)] = requests
    assert path == "/_bulk"
    assert headers["Content-Type"] == BULK_CONTENT_TYPE
    assert body == _reference_bulk(documents)


def test_http_sink_batches_documents(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint, batch_size=2)
    written = sink.publish(forensics(4), "lat", "raw")  # head + 4 event documents
    assert len(requests) == 2  # 2 + 2, and 1 waiting
    sink.close()
    assert len(requests) == 3
    assert written == sum(len(body) for _, _, body in requests)
    rows = [row for _, _, body in requests for row in parse_ndjson(body)]
    assert [row.get("pid") for row in rows[1::2]] == [None, 0, 1, 2, 3]


def test_http_sink_batches_documents_across_actions(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint, batch_size=4)
    actions = [accumulating(0), forensics(4, 1), accumulating(2), forensics(1, 3)]
    written = [sink.publish(action, "lat", "raw") for action in actions]
    assert len(requests) == 2  # 1 + 5 + 1 + 2 documents: two full requests, one waiting
    assert sink.bytes_written == sum(len(body) for _, _, body in requests) < sum(written)
    sink.close()
    bodies = [body for _, _, body in requests]
    assert [len(parse_ndjson(body)) // 2 for body in bodies] == [4, 4, 1]
    expected = b"".join(
        _reference_bulk(action_to_documents(action, "lat", "raw")) for action in actions
    )
    assert b"".join(bodies) == expected  # the bytes received
    assert sum(written) == sink.bytes_written == len(expected)
    assert written == [
        len(_reference_bulk(action_to_documents(action, "lat", "raw"))) for action in actions
    ]


def test_http_sink_static_auth_header(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint, headers={"Authorization": "ApiKey abc"})
    sink.publish(accumulating(), "lat", "raw")
    sink.flush()
    _, headers, _ = requests[0]
    assert headers["Authorization"] == "ApiKey abc"


def test_http_sink_connection_refused_is_unavailable():
    sink = HttpBulkSink("http://127.0.0.1:9", timeout=0.5)
    action = accumulating()
    sink.publish(action, "lat", "raw")
    with pytest.raises(SinkUnavailable):
        sink.close()
    assert sink.bytes_written == 0
    sink.close()  # the dropped document is not sent again


def test_http_sink_reply_that_is_not_http_is_unavailable(monkeypatch):
    def fake_urlopen(request, timeout):  # what urlopen raises on a garbled status line
        raise http.client.BadStatusLine("garbage")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    sink = HttpBulkSink("http://bulk.test")
    action = accumulating()
    sink.publish(action, "lat", "raw")
    with pytest.raises(SinkUnavailable):
        sink.flush()
    assert sink.bytes_written == 0


@pytest.mark.parametrize(
    "reply",
    [b'{"took":1,"errors":true,"items":[]}', b"<html>busy</html>", b"[]", b"", b"\xff"],
    ids=["item-errors", "not-json", "json-array", "empty", "not-utf8"],
)
def test_http_sink_failed_bulk_reply_is_unavailable(monkeypatch, reply):
    bodies = []

    def fake_urlopen(request, timeout):  # answers every POST with `reply`, no network
        bodies.append(request.data)
        return io.BytesIO(reply)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    sink = HttpBulkSink("http://bulk.test", batch_size=3)
    action = forensics(2)  # 3 documents: a full batch, POSTed at publish
    with pytest.raises(SinkUnavailable):
        emit(action, sink)
    assert bodies == [_reference_bulk(action_to_documents(action))]
    assert sink.bytes_written == 0
    sink.close()
    assert len(bodies) == 1  # the failed documents were dropped, not kept to resend


class _Transport:
    """A fake `urlopen` whose POSTs succeed or fail by a list of outcomes
    (True: indexed), recording the bodies of those that succeed."""

    def __init__(self, outcomes=()):
        self.outcomes = list(outcomes)
        self.delivered: list[bytes] = []
        self.attempts = 0

    def __call__(self, request, timeout):
        self.attempts += 1
        if self.outcomes and not self.outcomes.pop(0):
            raise urllib.error.URLError("connection refused")
        self.delivered.append(request.data)
        return io.BytesIO(b'{"errors":false}')

    def ids(self):
        rows = [row for body in self.delivered for row in parse_ndjson(body)]
        return [row["index"]["_id"] for row in rows[0::2]]


def _ids(action):
    return [doc_id for _, doc_id, _ in action_to_documents(action)]


def test_failed_second_post_drops_what_it_held(monkeypatch):
    transport = _Transport([True, False])
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    sink = HttpBulkSink("http://bulk.test", batch_size=3)
    actions = [accumulating(0), forensics(2, 1), accumulating(2), forensics(1, 3)]
    # a0 | a1 a1.1 a1.2 | a2 | a3 a3.1: the first request holds a0, a1's head and
    # first event; the second, a1's last event, a2 and a3's head, and fails
    for action in actions[:3]:
        emit(action, sink)
    assert transport.attempts == 1
    with pytest.raises(SinkUnavailable):
        emit(actions[3], sink)
    assert transport.ids() == ["box/0/0", "box/1/0", "box/1/1"]
    assert sink.bytes_written == len(transport.delivered[0])
    sink.close()
    assert transport.attempts == 2

    # publishing the actions again sends a1's delivered documents under the
    # same ids, so the index overwrites them instead of holding two copies
    again = HttpBulkSink("http://bulk.test", batch_size=3)
    for action in actions[1:]:
        emit(action, again)
    again.close()
    resent = transport.ids()[3:]
    assert resent == [i for action in actions[1:] for i in _ids(action)]
    assert sorted(set(resent) & set(transport.ids()[:3])) == ["box/1/0", "box/1/1"]
    assert set(transport.ids()) == {i for action in actions for i in _ids(action)}


def test_document_ids_parse_from_the_right():
    action = PublishAction(
        key=IntervalKey("ns/pod/7", 12, 30.0), mode=PublishMode.FORENSICS_ONLY,
        forensics=(ForensicEvent(360.0, "ns/pod/7", "read", 1, 0, 0),),
    )
    ids = _ids(action)
    assert ids == ["ns/pod/7/12/0", "ns/pod/7/12/1"]
    assert [i.rsplit("/", 2) for i in ids] == [["ns/pod/7", "12", "0"], ["ns/pod/7", "12", "1"]]


def test_failing_close_drops_what_it_held(monkeypatch):
    transport = _Transport([False])
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    sink = HttpBulkSink("http://bulk.test", batch_size=10)
    actions = [accumulating(0), forensics(3, 1)]
    for action in actions:
        sink.publish(action, "lat", "raw")
    assert transport.attempts == 0
    with pytest.raises(SinkUnavailable):
        sink.close()
    assert sink.bytes_written == 0
    sink.close()  # the dropped actions are not sent again
    assert transport.attempts == 1


def test_drift_is_delivered_before_its_publish_returns(monkeypatch):
    transport = _Transport([True, False])
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    sink = HttpBulkSink("http://bulk.test", batch_size=500)
    first = [accumulating(0), drift(2, 1)]
    for action in first:
        emit(action, sink)
    # one request: the waiting head and the whole drift
    assert transport.ids() == [i for action in first for i in _ids(action)]
    assert sink.bytes_written == len(transport.delivered[0])
    # a drift whose request fails raises at its own emit, and drops what waited
    later = [accumulating(2), drift(1, 3)]
    emit(later[0], sink)
    assert transport.attempts == 1
    with pytest.raises(SinkUnavailable):
        emit(later[1], sink)
    assert transport.attempts == 2
    sink.close()
    assert transport.attempts == 2
    assert sink.bytes_written == len(transport.delivered[0])


# batch_size 2: the request fails at the later action's publish; 10: at the flush
@pytest.mark.parametrize("batch_size", [2, 10], ids=["at-publish", "at-flush"])
def test_a_failed_post_drops_what_the_sink_held_before_it(monkeypatch, batch_size):
    transport = _Transport([False])
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    sink = HttpBulkSink("http://bulk.test", batch_size=batch_size)
    emit(accumulating(0), sink)  # accepted and waiting, not yet delivered
    with pytest.raises(SinkUnavailable):
        emit(accumulating(1), sink)
        sink.flush()
    assert transport.attempts == 1
    assert sink.bytes_written == 0
    sink.close()  # neither action is sent again
    assert transport.attempts == 1
    assert transport.delivered == []


def test_http_sink_error_status_is_unavailable_and_dropped(monkeypatch):
    attempts = []

    def fake_urlopen(request, timeout):  # every POST answered 503, no network
        attempts.append(request.data)
        raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    sink = HttpBulkSink("http://bulk.test")
    sink.publish(forensics(2), "lat", "raw")
    with pytest.raises(SinkUnavailable, match="503"):
        sink.close()
    assert sink.bytes_written == 0
    sink.close()
    assert len(attempts) == 1


@pytest.mark.parametrize("batch_size", [0, -1])
def test_http_sink_batch_size_must_be_positive(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        HttpBulkSink("http://bulk.test", batch_size=batch_size)


def test_sink_unavailable_carries_its_message_and_exit_code():
    error = SinkUnavailable("bulk endpoint http://bulk.test: refused")
    assert error.args == ("bulk endpoint http://bulk.test: refused",)
    assert (error.exit_code, error.kind) == (5, "sink")
    assert not hasattr(error, "actions")
