"""Publishing sinks and the bulk-indexing wire format.

A sink accepts one publish action, encodes it in the one representation
it ships, and returns the exact byte count it shipped, which feeds cost
accounting:

    publish(action, latent_index, forensics_index) -> bytes written

FileSink appends the action's newline-delimited record
(`publisher.serialize_action`) and ignores the index names; HttpBulkSink
POSTs the action's documents (`publisher.action_to_documents`) as
bulk-API requests (action metadata line, then source line, trailing
newline) to an HTTP endpoint; a reply that is not a JSON object, or that
reports `"errors": true`, counts as a failed publish. A SpoolDirectory
holds serialized actions whenever a sink is unavailable so they can be
replayed later.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from vaeguard.errors import EmptyBatch, SinkUnavailable
from vaeguard.publisher import PublishAction, action_to_documents, serialize_action

Document = tuple[str, Mapping]

BULK_CONTENT_TYPE = "application/x-ndjson"


def encode_bulk_request(documents: Sequence[Document]) -> bytes:
    """Bulk wire format: one action line plus one source line per document."""
    if not documents:
        raise EmptyBatch("bulk request requires at least one document")
    lines: list[str] = []
    for index_name, source in documents:
        lines.append(json.dumps({"index": {"_index": index_name}}, separators=(",", ":")))
        lines.append(json.dumps(source, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


class Sink(Protocol):
    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int: ...

    def close(self) -> None: ...


class FileSink:
    """Append-only newline-delimited record sink."""

    def __init__(self, path):
        self.path = Path(path)
        self._handle = open(self.path, "ab")
        self.bytes_written = 0

    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int:
        if self._handle.closed:
            raise SinkUnavailable(f"file sink {self.path} is closed")
        line = serialize_action(action)
        try:
            self._handle.write(line)
        except (OSError, ValueError) as exc:
            raise SinkUnavailable(f"file sink {self.path}: {exc}") from exc
        self.bytes_written += len(line)
        return len(line)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


def _check_bulk_reply(reply: bytes, endpoint: str) -> None:
    """A bulk reply must be a JSON object whose `errors` is not true;
    anything else means some documents may not have been indexed."""
    try:
        doc = json.loads(reply)
    except (ValueError, RecursionError):
        doc = None
    if not isinstance(doc, dict):
        raise SinkUnavailable(f"bulk endpoint {endpoint}: reply is not a JSON object")
    if doc.get("errors"):
        raise SinkUnavailable(f"bulk endpoint {endpoint}: reply reports item errors")


class HttpBulkSink:
    """POSTs bulk requests to `<endpoint>/_bulk`, batching documents."""

    def __init__(
        self,
        endpoint: str,
        batch_size: int = 500,
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

    def publish(self, action: PublishAction, latent_index: str, forensics_index: str) -> int:
        documents = action_to_documents(action, latent_index, forensics_index)
        total = 0
        for start in range(0, len(documents), self.batch_size):
            body = encode_bulk_request(documents[start : start + self.batch_size])
            request = urllib.request.Request(
                f"{self.endpoint}/_bulk",
                data=body,
                headers={"Content-Type": BULK_CONTENT_TYPE, **self.headers},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    reply = response.read()
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                raise SinkUnavailable(f"bulk endpoint {self.endpoint}: {exc}") from exc
            _check_bulk_reply(reply, self.endpoint)
            total += len(body)
        self.bytes_written += total
        return total

    def close(self) -> None:
        pass


class SpoolDirectory:
    """Disk spool for serialized actions that could not be published;
    `publisher.replay_spool` drains it.

    Each action is one `action-<index>.ndjson` file, written to a temporary
    name and renamed into place, so a crash never leaves a partial one.
    The next index is found once, when the spool is opened, counting the
    files moved to `quarantine/` too.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.quarantine_path = self.path / "quarantine"
        # skip names without a numeric index, such as action-old.ndjson: the
        # file stays pending, and replay quarantines it if it cannot be read
        indices = (p.stem.removeprefix("action-") for p in self.path.glob("**/action-*.ndjson"))
        existing = (int(i) for i in indices if i.isascii() and i.isdigit())
        self._next_index = max(existing, default=-1) + 1

    def store(self, line: bytes) -> Path:
        target = self.path / f"action-{self._next_index:08d}.ndjson"
        partial = target.with_suffix(".partial")
        partial.write_bytes(line)
        os.replace(partial, target)
        self._next_index += 1
        return target

    def pending(self) -> list[Path]:
        return sorted(self.path.glob("action-*.ndjson"))

    def quarantine(self, path: Path) -> Path:
        """Move a spooled file that cannot be read out of the replay queue."""
        self.quarantine_path.mkdir(exist_ok=True)
        target = self.quarantine_path / path.name
        os.replace(path, target)
        return target
