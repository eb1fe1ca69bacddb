import http.server
import io
import json
from pathlib import Path
import threading
import urllib.request

import pytest

from vaeguard.errors import EmptyBatch, SinkUnavailable
from vaeguard.events import ForensicEvent
from vaeguard.publisher import (
    PublishAction,
    PublishMode,
    action_to_documents,
    emit,
    replay_spool,
    serialize_action,
)
from vaeguard.sinks import (
    BULK_CONTENT_TYPE,
    FileSink,
    HttpBulkSink,
    SpoolDirectory,
    encode_bulk_request,
)
from vaeguard.summarize import IntervalKey


def accumulating(i=0):
    return PublishAction(key=IntervalKey("box", i, 30.0), mode=PublishMode.ACCUMULATING)


def forensics(count, i=0):
    events = tuple(
        ForensicEvent(i * 30.0 + j, "box", "openat", j, 0, 0) for j in range(count)
    )
    return PublishAction(
        key=IntervalKey("box", i, 30.0), mode=PublishMode.FORENSICS_ONLY, forensics=events
    )


def parse_ndjson(body: bytes):
    return [json.loads(line) for line in body.decode("utf-8").splitlines()]


def test_bulk_two_documents_is_four_lines_with_trailing_newline():
    body = encode_bulk_request([("idx-a", {"x": 1}), ("idx-b", {"y": 2})])
    assert body.endswith(b"\n")
    lines = body.decode("utf-8").split("\n")
    assert len(lines) == 5 and lines[-1] == ""


def test_bulk_single_document():
    body = encode_bulk_request([("idx", {"x": 1})])
    assert len(body.decode("utf-8").split("\n")) == 3


def test_bulk_round_trips_through_ndjson_parser():
    documents = [
        ("latent", {"container": "a", "mu": [0.25, -1.5]}),
        ("raw", {"t": 1.5, "syscall": "openat"}),
    ]
    rows = parse_ndjson(encode_bulk_request(documents))
    assert rows[0] == {"index": {"_index": "latent"}}
    assert rows[1] == {"container": "a", "mu": [0.25, -1.5]}
    assert rows[2] == {"index": {"_index": "raw"}}
    assert rows[3] == {"t": 1.5, "syscall": "openat"}


def test_bulk_rejects_empty_batch():
    with pytest.raises(EmptyBatch):
        encode_bulk_request([])


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


# -- http bulk sink --------------------------------------------------------------


class _Recorder(http.server.BaseHTTPRequestHandler):
    requests: list[tuple[str, dict, bytes]] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        _Recorder.requests.append((self.path, dict(self.headers), body))
        self.send_response(200)
        payload = b'{"errors":false}'
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def bulk_server():
    _Recorder.requests = []
    server = http.server.HTTPServer(("127.0.0.1", 0), _Recorder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _Recorder.requests
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_http_sink_posts_bulk_body(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint)
    action = forensics(1)
    written = sink.publish(action, "lat", "raw")
    documents = action_to_documents(action, "lat", "raw")
    assert [index for index, _ in documents] == ["lat", "raw"]
    assert written == len(encode_bulk_request(documents))
    path, headers, body = requests[0]
    assert path == "/_bulk"
    assert headers["Content-Type"] == BULK_CONTENT_TYPE
    assert body == encode_bulk_request(documents)


def test_http_sink_batches_documents(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint, batch_size=2)
    written = sink.publish(forensics(4), "lat", "raw")  # head + 4 event documents
    assert len(requests) == 3  # 2 + 2 + 1
    assert written == sum(len(body) for _, _, body in requests)
    rows = [row for _, _, body in requests for row in parse_ndjson(body)]
    assert [row.get("pid") for row in rows[1::2]] == [None, 0, 1, 2, 3]


def test_http_sink_static_auth_header(bulk_server):
    endpoint, requests = bulk_server
    sink = HttpBulkSink(endpoint, headers={"Authorization": "ApiKey abc"})
    sink.publish(accumulating(), "lat", "raw")
    _, headers, _ = requests[0]
    assert headers["Authorization"] == "ApiKey abc"


def test_http_sink_connection_refused_is_unavailable():
    sink = HttpBulkSink("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(SinkUnavailable):
        sink.publish(accumulating(), "lat", "raw")


@pytest.mark.parametrize(
    "reply",
    [b'{"took":1,"errors":true,"items":[]}', b"<html>busy</html>", b"[]", b"", b"\xff"],
    ids=["item-errors", "not-json", "json-array", "empty", "not-utf8"],
)
def test_http_sink_failed_bulk_reply_is_unavailable_and_spooled(tmp_path, monkeypatch, reply):
    bodies = []

    def fake_urlopen(request, timeout):  # answers every POST with `reply`, no network
        bodies.append(request.data)
        return io.BytesIO(reply)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    sink = HttpBulkSink("http://bulk.test")
    spool = SpoolDirectory(tmp_path / "spool")
    action = forensics(2)
    with pytest.raises(SinkUnavailable):
        emit(action, sink, spool)
    assert bodies == [encode_bulk_request(action_to_documents(action))]
    assert sink.bytes_written == 0
    assert [path.read_bytes() for path in spool.pending()] == [serialize_action(action)]


# -- spool ------------------------------------------------------------------------


def test_spool_preserves_order_and_indices(tmp_path):
    spool = SpoolDirectory(tmp_path / "spool")
    spool.store(b"first\n")
    spool.store(b"second\n")
    names = [p.name for p in spool.pending()]
    assert names == ["action-00000000.ndjson", "action-00000001.ndjson"]
    # indices continue after a restart
    again = SpoolDirectory(tmp_path / "spool")
    again.store(b"third\n")
    assert len(again.pending()) == 3


def test_spool_store_globs_once_over_many_writes(tmp_path, monkeypatch):
    calls = []
    real_glob = Path.glob

    def counting_glob(self, pattern):
        calls.append(pattern)
        return real_glob(self, pattern)

    monkeypatch.setattr(Path, "glob", counting_glob)
    spool = SpoolDirectory(tmp_path / "spool")
    for i in range(100):
        spool.store(b"line %d\n" % i)
    assert len(calls) == 1
    monkeypatch.undo()
    names = [p.name for p in spool.pending()]
    assert names == [f"action-{i:08d}.ndjson" for i in range(100)]
    assert not list((tmp_path / "spool").glob("*.partial"))


def test_spool_ignores_partial_writes_and_skips_quarantined_indices(tmp_path):
    spool = SpoolDirectory(tmp_path / "spool")
    first = spool.store(b"first\n")
    (tmp_path / "spool" / "action-00000001.partial").write_bytes(b"trunc")
    assert spool.pending() == [first]
    spool.quarantine(first)
    assert (tmp_path / "spool" / "quarantine" / first.name).read_bytes() == b"first\n"
    # a reopened spool does not reuse the quarantined file's index
    assert SpoolDirectory(tmp_path / "spool").store(b"second\n").name == "action-00000001.ndjson"


def test_spool_with_a_stray_file_opens_and_replay_quarantines_it(tmp_path):
    root = tmp_path / "spool"
    root.mkdir()
    (root / "action-old.ndjson").write_bytes(b"not an action\n")
    (root / "action-00000003.ndjson").write_bytes(serialize_action(forensics(2)))
    spool = SpoolDirectory(root)
    assert spool.store(serialize_action(forensics(1, i=1))).name == "action-00000004.ndjson"
    sink = FileSink(tmp_path / "out.ndjson")
    try:
        assert replay_spool(spool, sink) > 0
    finally:
        sink.close()
    assert spool.pending() == []
    assert [p.name for p in (root / "quarantine").iterdir()] == ["action-old.ndjson"]
    assert len((tmp_path / "out.ndjson").read_bytes().splitlines()) == 2
