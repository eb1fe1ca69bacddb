import http.client
import io
import json
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
from vaeguard.errors import EmptyBatch, SinkUnavailable
from vaeguard.events import ForensicEvent
from vaeguard.publisher import (
    PublishAction,
    PublishMode,
    action_to_documents,
    emit,
    serialize_action,
)
from vaeguard.sinks import (
    BULK_CONTENT_TYPE,
    FileSink,
    HttpBulkSink,
    encode_bulk_request,
)
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
    latent = LatentRecord(key, np.zeros(2), np.zeros(2), 2.0)
    return PublishAction(
        key=key, mode=PublishMode.LATENT_PLUS_FORENSICS, latent=latent,
        forensics=forensics(count, i).forensics, verdict=assess(latent, HeuristicThreshold(1.0)),
    )


def parse_ndjson(body: bytes):
    return [json.loads(line) for line in body.decode("utf-8").splitlines()]


def test_bulk_two_documents_is_four_lines_with_trailing_newline():
    body = encode_bulk_request([("idx-a", "a/0/0", {"x": 1}), ("idx-b", "a/0/1", {"y": 2})])
    assert body.endswith(b"\n")
    lines = body.decode("utf-8").split("\n")
    assert len(lines) == 5 and lines[-1] == ""


def test_bulk_single_document():
    body = encode_bulk_request([("idx", "a/0/0", {"x": 1})])
    assert len(body.decode("utf-8").split("\n")) == 3


def test_bulk_round_trips_through_ndjson_parser():
    documents = [
        ("latent", "a/3/0", {"container": "a", "mu": [0.25, -1.5]}),
        ("raw", "a/3/1", {"t": 1.5, "syscall": "openat"}),
    ]
    rows = parse_ndjson(encode_bulk_request(documents))
    assert rows[0] == {"index": {"_index": "latent", "_id": "a/3/0"}}
    assert rows[1] == {"container": "a", "mu": [0.25, -1.5]}
    assert rows[2] == {"index": {"_index": "raw", "_id": "a/3/1"}}
    assert rows[3] == {"t": 1.5, "syscall": "openat"}


def test_bulk_rejects_empty_batch():
    with pytest.raises(EmptyBatch):
        encode_bulk_request([])


# -- the encoders against json.dumps --------------------------------------------

_COMPACT = (",", ":")
# characters JSON must escape, and ones it must pass through or \u-escape
_AWKWARD = '"\\/\x00\x08\x1f\x7f\n\t\xe9\xa0\ufeff\u2028\ud800\udfff\U0010fc00\U0001f600'
_NAMES = st.text(st.sampled_from(_AWKWARD) | st.characters(exclude_categories=()), max_size=12)
# where _round8 changes how a value reads: signed zero, integral values, the
# exponent switch of .8g (1e8) and of repr (1e16), and small magnitudes
_EDGES = st.sampled_from(
    [0.0, -0.0, 1.0, -3.0, 12345678.0, 1e8, 123456789.0, 99999999.5, 1e15, 1e16,
     1.2345678e16, 1e-4, 1e-5, -1.5e-5, 5e-324, 1.7976931348623157e308]
)
_VALUES = _EDGES | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _actions(draw):
    key = IntervalKey(
        draw(_NAMES),
        draw(st.integers(0, 2**53)),
        draw(st.floats(1e-3, 1e6, exclude_min=True)),
    )
    mode = draw(st.sampled_from(list(PublishMode)))
    latent = verdict = forensics = None
    if mode in (PublishMode.LATENT_ONLY, PublishMode.LATENT_PLUS_FORENSICS):
        dim = draw(st.integers(1, 10))
        mu, logvar = (np.array(draw(st.lists(_VALUES, min_size=dim, max_size=dim))) for _ in "ml")
        latent = LatentRecord(key, mu, logvar, draw(_VALUES))
        verdict = StabilityVerdict(draw(_VALUES), mode is PublishMode.LATENT_ONLY)
    if mode in (PublishMode.FORENSICS_ONLY, PublishMode.LATENT_PLUS_FORENSICS):
        times = sorted(draw(st.lists(st.floats(0, 1e12), min_size=1, max_size=5)))
        forensics = tuple(
            ForensicEvent(
                t, key.container_id, draw(_NAMES), draw(st.integers(0, 2**31)),
                draw(st.integers(-(2**31), 2**31)), draw(st.integers(0, 2**64)),
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
    assert encode_bulk_request(documents) == _reference_bulk(documents)
    # the head document carries the line's rounded latent and verdict fields
    head, line = documents[0][2], json.loads(_reference_line(action))
    shipped = {**line.get("latent", {}), **line.get("verdict", {})}
    assert json.dumps({name: head[name] for name in shipped}) == json.dumps(shipped)


@settings(max_examples=200, deadline=None)
@given(
    documents=st.lists(
        st.tuples(
            _NAMES,
            _NAMES,
            st.dictionaries(_NAMES, _VALUES | _NAMES | st.integers() | st.booleans() | st.none()),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_bulk_request_writes_what_json_dumps_writes(documents):
    assert encode_bulk_request(documents) == _reference_bulk(documents)


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
        assert bulk_sink.publish(action, "lat", "raw") == len(encode_bulk_request(docs))
    file_sink.close()
    bulk_sink.close()
    assert (tmp_path / "out.ndjson").read_bytes() == b"".join(whole)
    every = [document for docs in documents for document in docs]
    # 1 + 8 documents: three full requests; 6: two more; the drift's 2 are
    # flushed after it, and the last action's head at close
    bounds = [0, 3, 6, 9, 12, 15, 17, 18]
    batches = [every[a:b] for a, b in zip(bounds, bounds[1:])]
    assert transport.delivered == [encode_bulk_request(batch) for batch in batches]


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
    calls = []
    real_encode = sinks_module.encode_bulk_request

    def counting_encode(documents):
        calls.append(len(documents))
        return real_encode(documents)

    monkeypatch.setattr(sinks_module, "encode_bulk_request", counting_encode)
    monkeypatch.setattr(urllib.request, "urlopen", _Transport())
    sink = HttpBulkSink("http://bulk.test")
    sink.publish(accumulating(0), "lat", "raw")
    assert calls == [1]
    sink.publish(drift(4096, 1), "lat", "raw")  # a drift of one piece: one more call
    assert calls == [1, 4097]
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
    assert written == len(encode_bulk_request(documents)) == sink.bytes_written
    [(path, headers, body)] = requests
    assert path == "/_bulk"
    assert headers["Content-Type"] == BULK_CONTENT_TYPE
    assert body == encode_bulk_request(documents)


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
        encode_bulk_request(action_to_documents(action, "lat", "raw")) for action in actions
    )
    assert b"".join(bodies) == expected  # the bytes received
    assert sum(written) == sink.bytes_written == len(expected)
    assert written == [
        len(encode_bulk_request(action_to_documents(action, "lat", "raw"))) for action in actions
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
    assert bodies == [encode_bulk_request(action_to_documents(action))]
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
