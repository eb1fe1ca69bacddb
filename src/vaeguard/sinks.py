"""Publishing sinks and the bulk-indexing wire format.

A sink accepts one publish action, encodes it in the one representation
it ships, and returns the exact byte count that action adds to what it
ships, which feeds cost accounting:

    publish(action, latent_index, forensics_index) -> int
    flush()   # ship whatever the sink still holds
    close()   # flush, then release the sink

Both sinks take a drift's encoding in pieces of at most 4,096 events, so
their memory does not grow with the drift. FileSink appends the action's
newline-delimited record (`publisher.serialize_action`'s bytes), writing
the pieces of `publisher.record_pieces` one by one, and ignores the
index names; `flush` flushes the file. If a write fails, the file is
truncated back to where that record began before `SinkUnavailable` is
raised, and if that fails too, the sink closes, so no record is ever
appended after a partial one. HttpBulkSink encodes the action's documents
(`publisher.action_to_documents`, taken piece by piece from
`publisher.document_pieces`) as bulk-API lines (action metadata
line with the document's `_index` and `_id`, then its source line, each
newline-terminated) and buffers them across actions. It POSTs to
`<endpoint>/_bulk` whenever `batch_size` documents wait, after each
piece, and flushes after a drift action (`LATENT_PLUS_FORENSICS`), so
the forensics of a drift are delivered or raised before its `publish`
returns; `flush` and `close` POST the rest. The bodies and their
boundaries are those of encoding the whole document list at once. A
document's `_id` is `<container>/<interval>/<ordinal>`
(ordinal 0 for the action's head, then 1, 2, ... for its events), so a
re-publish overwrites what an earlier delivery indexed.
`bytes_written` counts only bytes of POSTs that succeeded.

A reply that is not a JSON object, or that reports `"errors": true`,
fails the POST as a refused connection does. A failed POST raises
`SinkUnavailable` and drops every document the sink held, never to
resend it; so a failure can show at a later `publish` than the action's
own, or at `flush`/`close`.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from vaeguard.errors import EmptyBatch, SinkUnavailable
from vaeguard.publisher import (
    PublishAction,
    PublishMode,
    compact_json,
    document_pieces,
    record_pieces,
)

# (index name, document id, source)
Document = tuple[str, str, Mapping]

BULK_CONTENT_TYPE = "application/x-ndjson"
# Documents per bulk request.
DEFAULT_BULK_BATCH_SIZE = 500
# A document's action metadata line around its encoded index name and id.
_ACTION_LINE = '{"index":{"_index":%s,"_id":%s}}'


def encode_bulk_request(documents: Sequence[Document]) -> bytes:
    """Bulk wire format: one action line plus one source line per document,
    each newline-terminated, as compact_json writes them."""
    if not documents:
        raise EmptyBatch("bulk request requires at least one document")
    lines: list[str] = []
    for index_name, doc_id, source in documents:
        # compact_json of {"index": {"_index": index_name, "_id": doc_id}}
        lines.append(_ACTION_LINE % (compact_json(index_name), compact_json(doc_id)))
        lines.append(compact_json(source))
    return ("\n".join(lines) + "\n").encode("utf-8")


class Sink(Protocol):
    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


class FileSink:
    """Append-only newline-delimited record sink."""

    def __init__(self, path):
        self.path = Path(path)
        self._handle = open(self.path, "ab")
        self.bytes_written = 0

    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int:
        handle = self._handle
        if handle.closed:
            raise SinkUnavailable(f"file sink {self.path} is closed")
        start = None
        written = 0
        try:
            if handle.seekable():  # a FIFO's is not: a failed record there closes the sink
                start = handle.tell()
            for piece in record_pieces(action):
                handle.write(piece)
                written += len(piece)
        except (OSError, ValueError) as exc:
            self._cut(start)
            raise SinkUnavailable(f"file sink {self.path}: {exc}") from exc
        self.bytes_written += written
        return written

    def _cut(self, start: int | None) -> None:
        """Truncate the file back to `start`, where a failed record began
        (None: not known). If that fails too, close the sink, so that no
        later record is appended after a partial one."""
        try:
            if start is None:
                raise OSError("where the record began is not known")
            self._handle.truncate(start)  # flushes what the record left buffered first
            self._handle.seek(start)
        except (OSError, ValueError):
            try:
                self._handle.close()
            except (OSError, ValueError):
                pass  # closed anyway: close releases the file even when its flush fails

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        self._handle.close()  # flushes first; a no-op once closed


def _bulk_reply_problem(reply: bytes) -> str | None:
    """A bulk reply must be a JSON object whose `errors` is not true;
    anything else means some documents may not have been indexed."""
    try:
        doc = json.loads(reply)
    except (ValueError, RecursionError):
        doc = None
    if not isinstance(doc, dict):
        return "reply is not a JSON object"
    if doc.get("errors"):
        return "reply reports item errors"
    return None


class HttpBulkSink:
    """POSTs bulk requests of `batch_size` documents to `<endpoint>/_bulk`,
    buffering documents across actions until that many wait or a drift
    action arrives."""

    def __init__(
        self,
        endpoint: str,
        batch_size: int = DEFAULT_BULK_BATCH_SIZE,
        headers: Mapping[str, str] | None = None,
        timeout: float = 10.0,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.endpoint = endpoint.rstrip("/")
        self.batch_size = batch_size
        self.headers = dict(headers or {})
        self.timeout = timeout
        self.bytes_written = 0
        # encoded documents not yet POSTed, and how many they are
        self._buffer = bytearray()
        self._waiting = 0

    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int:
        written = 0
        for documents in document_pieces(action, latent_index, forensics_index):
            body = encode_bulk_request(documents)
            self._buffer += body
            self._waiting += len(documents)
            written += len(body)
            while self._waiting >= self.batch_size:
                self._post(self.batch_size)
        if action.mode is PublishMode.LATENT_PLUS_FORENSICS:
            # a drift's forensics do not wait in memory for the batch to fill
            self.flush()
        return written

    def flush(self) -> None:
        if self._waiting:
            self._post(self._waiting)

    def close(self) -> None:
        self.flush()

    def _post(self, count: int) -> None:
        """POST the oldest `count` waiting documents."""
        end = len(self._buffer)
        if count < self._waiting:
            end = 0
            # compact_json escapes every newline, so each document is two lines
            for _ in range(2 * count):
                end = self._buffer.index(b"\n", end) + 1
        body = bytes(self._buffer[:end])
        request = urllib.request.Request(
            f"{self.endpoint}/_bulk",
            data=body,
            headers={"Content-Type": BULK_CONTENT_TYPE, **self.headers},
            method="POST",
        )
        cause = None
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                problem = _bulk_reply_problem(response.read())
        except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
            problem, cause = str(exc), exc
        if problem is not None:
            self._buffer.clear()
            self._waiting = 0
            raise SinkUnavailable(f"bulk endpoint {self.endpoint}: {problem}") from cause
        del self._buffer[:end]
        self._waiting -= count
        self.bytes_written += len(body)

