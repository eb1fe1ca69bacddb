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
appended after a partial one. HttpBulkSink writes the bulk-API lines of
the action's documents (per document an action metadata line with its
`_index` and `_id`, then its source line, each newline-terminated), byte
for byte what `publisher.action_to_documents`'s list encodes to, one
piece at a time with `encode_bulk_request`. It writes them from text, as
the record is written, and builds no per-event document: the key's
fields and the index names are encoded once per action (the sink
remembers the texts of the container ids and index names it has seen),
the head's latent and verdict fields are the record's own text
(`publisher.head_texts`), each piece's timestamps take one compact_json
call, and each event's syscall and pid/ret/bytes
text is looked up by its codes, in texts built for the piece's distinct
codes. It buffers the lines across actions. It POSTs to
`<endpoint>/_bulk` whenever `batch_size` documents wait, after each
piece, and flushes after a drift action (`LATENT_PLUS_FORENSICS`), so
the forensics of a drift are delivered or raised before its `publish`
returns; `flush` and `close` POST the rest. The bodies and their
boundaries are those of encoding the whole document list at once. A
document's `_id` is `<container>/<interval>/<ordinal>`
(ordinal 0 for the action's head, then 1, 2, ... for its events), so a
re-publish overwrites what an earlier delivery indexed.
`bytes_written` counts only bytes of POSTs that succeeded.

The HTTP client (`urllib.request` and what it loads: `http.client`,
`ssl`, `email`) loads when an HttpBulkSink is built, not when this
module is imported, so a run that writes only to files never loads it.

A reply that is not a JSON object, or that reports `"errors": true`,
fails the POST as a refused connection does. A failed POST raises
`SinkUnavailable` and drops every document the sink held, never to
resend it; so a failure can show at a later `publish` than the action's
own, or at `flush`/`close`. When a drift's documents span several
POSTs and a later one fails, its head document and first events stay
indexed, nothing in them marks the forensics incomplete, and the
`SinkUnavailable` message on stderr is the only signal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping, Protocol

import numpy as np

from vaeguard.errors import SinkUnavailable
from vaeguard.events import EventBlock, compact_json
from vaeguard.publisher import (
    PublishAction,
    PublishMode,
    event_pieces,
    head_texts,
    json_text,
    record_pieces,
    timestamp_texts,
)
from vaeguard.summarize import IntervalKey
from vaeguard.validation import as_count

BULK_CONTENT_TYPE = "application/x-ndjson"
# Documents per bulk request.
DEFAULT_BULK_BATCH_SIZE = 500


def _texts_by_code(codes: np.ndarray, text_of: Callable[[int], str]) -> list[str]:
    """text_of(code) for each of `codes`, built once per distinct code."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    texts = np.array([text_of(code) for code in distinct.tolist()], dtype=object)
    return texts[inverse].tolist()


def encode_bulk_request(
    action: PublishAction, keys: tuple[str, str, str], events: EventBlock | None, start: int
) -> bytes:
    """The bulk lines of one piece of the action's documents, as
    compact_json writes `action_to_documents`'s: the head's when `start`
    is 0, then those of `events` (None or empty: none), the action's
    events from number `start` (from 0) on, whose ordinals are start + 1,
    start + 2, ... `keys` are the texts its lines repeat (see
    `HttpBulkSink._key_texts`)."""
    head_line, event_line, source = keys
    body = ""
    if not start:
        texts = head_texts(action)
        body = f'{head_line}0{source}"kind":{compact_json(action.mode.value)}'
        body += "}\n" if texts is None else f",{texts[0]},{texts[1]}}}\n"
    if events:
        tables = events.tables
        syscalls, pids, results, arg_bytes = (
            tables.syscall_texts, tables.pids, tables.results, tables.arg_bytes
        )
        texts = [event_line, "", f'{source}"t":', "", "", ""] * len(events)
        texts[1::6] = map(str, range(start + 1, start + 1 + len(events)))
        texts[3::6] = timestamp_texts(events)
        # a syscall text is "," + compact_json(syscall) + ","; a tail's values
        # are exact ints, which json writes as str() does
        texts[4::6] = _texts_by_code(
            events.syscall_codes, lambda k: f',"syscall":{syscalls[k][1:-1]},"pid":'
        )
        texts[5::6] = _texts_by_code(
            events.tail_codes,
            lambda k: f'{pids[k]},"ret":{results[k]},"bytes":{arg_bytes[k]}}}\n',
        )
        body += "".join(texts)
    return body.encode("utf-8")


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
        batch_size = as_count(batch_size, 1, "batch_size", ValueError)
        import urllib.request  # noqa: F401  the HTTP client loads with the sink, not the module

        self.endpoint = endpoint.rstrip("/")
        self.batch_size = batch_size
        self.headers = dict(headers or {})
        self.timeout = timeout
        self.bytes_written = 0
        # encoded documents not yet POSTed, and how many they are
        self._buffer = bytearray()
        self._waiting = 0
        # (container id, latent index, forensics index) -> their compact_json texts
        self._names: dict[tuple[str, str, str], tuple[str, ...]] = {}

    def _key_texts(
        self, key: IntervalKey, latent_index: str, forensics_index: str
    ) -> tuple[str, str, str]:
        """The texts an action's bulk lines repeat: the action line of its
        head and that of its events, each up to the document's ordinal, and
        what follows the ordinal up to the source's fields after its key's."""
        names = (key.container_id, latent_index, forensics_index)
        texts = self._names.get(names)
        if texts is None:
            texts = self._names[names] = tuple(map(compact_json, names))
        container, latent, forensics = texts
        # the interval's text is a number's, which json escapes nowhere
        id_prefix = f"{container[:-1]}/{key.interval_index}/"
        return (
            f'{{"index":{{"_index":{latent},"_id":{id_prefix}',
            f'{{"index":{{"_index":{forensics},"_id":{id_prefix}',
            f'"}}}}\n{{"container":{container},"interval":{json_text(key.interval_index)},'
            f'"interval_start":{json_text(key.start)},',
        )

    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int:
        keys = self._key_texts(action.key, latent_index, forensics_index)
        events = action.forensics
        written = start = 0
        # the first piece holds the head and the first events, if there are any
        for piece in event_pieces(events) if events else (None,):
            body = encode_bulk_request(action, keys, piece, start)
            count = 0 if piece is None else len(piece)
            self._buffer += body
            self._waiting += count + (not start)
            written += len(body)
            start += count
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
        import http.client
        import urllib.error
        import urllib.request

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

