"""Adaptive forensic publisher.

Per interval and per container, the publisher either accumulates
training vectors (no model yet), publishes just the compact latent
record (interval judged stable), or publishes the latent record plus the
interval's raw forensics (drift). An interval's events arrive as an
`EventBlock` slice of the trace; the stable and accumulating decisions
never look at them, and a drift action carries the slice itself, which
the encoders read column by column. A conventional mode that always
ships full forensics exists for cost comparisons.

Both publishers also push every interval into an `IntervalCache`, a
per-container ring buffer of recent raw intervals. Nothing reads it: it
stays only while the benchmark harness times `IntervalCache.push` and
passes `cache_capacity`, and then goes.

A drift's encodings are produced in pieces of at most 4,096 events
(`_ROWS_PER_PIECE`), so what publishing one allocates at a time does not
grow with the drift: `record_pieces` yields the newline-delimited record
(the head, then the events' text piece by piece, then the closing text)
and `document_pieces` the bulk documents. `serialize_action` and
`action_to_documents` join those pieces into the whole record and the
whole document list.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
import urllib.parse
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from vaeguard.events import EventBlock, ForensicEvent, as_block
from vaeguard.summarize import ActivityVector, IntervalKey, vectors_to_matrix
from vaeguard.thresholds import DEFAULT_K, StabilityVerdict, assess
from vaeguard.vae import LatentRecord, TrainConfig, VaeStabilityDetector, save_model

if TYPE_CHECKING:
    # sinks imports this module's codec at run time
    from vaeguard.sinks import Document, Sink

logger = logging.getLogger(__name__)

DEFAULT_LATENT_INDEX = "stability-latent"
DEFAULT_FORENSICS_INDEX = "stability-forensics"
# Raw intervals each container's ring buffer keeps.
DEFAULT_CACHE_CAPACITY = 4


class PublishMode(enum.Enum):
    """A mode's value is its wire name; its `shape` is what its action
    holds: (a latent, forensics, verdict.stable or None)."""

    ACCUMULATING = "accumulating", (False, False, None)
    LATENT_ONLY = "latent", (True, False, True)
    LATENT_PLUS_FORENSICS = "latent_forensics", (True, True, False)
    # conventional publisher used as the cost baseline; the adaptive
    # decision table never produces it
    FORENSICS_ONLY = "forensics", (False, True, None)

    def __new__(cls, value: str, shape: tuple[bool, bool, bool | None]):
        mode = object.__new__(cls)
        mode._value_ = value
        mode.shape = shape
        return mode


@dataclass(frozen=True)
class PublishAction:
    key: IntervalKey
    mode: PublishMode
    latent: LatentRecord | None = None
    # any event sequence given is held as an EventBlock
    forensics: EventBlock | None = None
    verdict: StabilityVerdict | None = None

    def __post_init__(self):
        if self.forensics is not None:
            object.__setattr__(self, "forensics", as_block(self.forensics))
        shape = (
            self.latent is not None,
            self.forensics is not None,
            None if self.verdict is None else self.verdict.stable,
        )
        if shape != self.mode.shape:
            raise ValueError(
                f"invalid {self.mode.name} action: latent {shape[0]},"
                f" forensics {shape[1]}, stable verdict {shape[2]}"
            )


class IntervalCache:
    """Per-container ring buffer of the most recent raw intervals, each
    held as the block it was pushed with (a list is copied into one).
    Written and never read; see the module docstring."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._buffers: dict[str, deque[tuple[IntervalKey, EventBlock]]] = {}

    def push(self, key: IntervalKey, events: Sequence[ForensicEvent]) -> None:
        buffer = self._buffers.get(key.container_id)
        if buffer is None:
            buffer = self._buffers[key.container_id] = deque(maxlen=self.capacity)
        buffer.append((key, as_block(events)))


# -- serialization ----------------------------------------------------------


# The publish path's one JSON encoder: compact separators, every other
# option json.dumps's default. json.dumps(..., separators=...) builds a new
# JSONEncoder per call; this one is built once and writes the same text.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _round8(value: float) -> float:
    """8 significant digits: plenty for published monitoring records and
    roughly half the wire size of full float64 repr."""
    return float(f"{value:.8g}")


def _round8_all(values: np.ndarray) -> list[float]:
    """_round8 of each value, formatted from Python floats (faster than
    numpy scalars, same digits)."""
    return [float(f"{v:.8g}") for v in values.tolist()]


def _rounded_head(action: PublishAction) -> tuple[dict | None, dict | None]:
    """The latent and verdict fields both encodings ship, rounded for the
    wire; None where the action has no latent or no verdict."""
    latent = verdict = None
    if action.latent is not None:
        latent = {
            "mu": _round8_all(action.latent.mu),
            "logvar": _round8_all(action.latent.logvar),
            "recon_error": _round8(action.latent.recon_error),
        }
    if action.verdict is not None:
        verdict = {
            "threshold": _round8(action.verdict.threshold),
            "stable": action.verdict.stable,
        }
    return latent, verdict


# Events encoded per piece of a record or of a bulk document list, which
# bounds the per-event strings and documents alive at once.
_ROWS_PER_PIECE = 4096


def _row_texts(events: EventBlock) -> Iterator[str]:
    """The text compact_json writes for `list(events.rows())`, without the
    outer "[[" and "]]", in pieces to be joined by "],[". The timestamps of
    a piece are formatted by one compact_json call, and each distinct
    syscall and pid/ret/bytes tail in it is encoded once."""
    tables = events.tables
    for start in range(0, len(events), _ROWS_PER_PIECE):
        piece = events[start : start + _ROWS_PER_PIECE]
        times = compact_json(piece.timestamps.tolist())[1:-1].split(",")
        syscalls, syscall_at = np.unique(piece.syscall_codes, return_inverse=True)
        syscall_texts = [compact_json(tables.syscalls[k]) for k in syscalls.tolist()]
        tail_codes, tail_at = np.unique(piece.tail_codes, return_inverse=True)
        tails = [
            [tables.pids[k], tables.results[k], tables.arg_bytes[k]] for k in tail_codes.tolist()
        ]
        tail_texts = compact_json(tails)[2:-2].split("],[")
        if len(tail_texts) != len(tails):  # a value whose own text holds "],["
            tail_texts = [compact_json(tail)[1:-1] for tail in tails]
        rows = zip(
            times,
            map(syscall_texts.__getitem__, syscall_at.tolist()),
            map(tail_texts.__getitem__, tail_at.tolist()),
        )
        yield "],[".join(map(",".join, rows))


def record_pieces(action: PublishAction) -> Iterator[bytes]:
    """The action's newline-terminated record in pieces, in order: the head,
    then the text of at most _ROWS_PER_PIECE events at a time, then the
    closing text. Joined, they are `serialize_action`'s bytes."""
    doc: dict = {
        "kind": action.mode.value,
        "container": action.key.container_id,
        "interval": action.key.interval_index,
        "interval_len": action.key.length,
    }
    latent, verdict = _rounded_head(action)
    if latent is not None:
        doc["latent"] = latent
    if verdict is not None:
        doc["verdict"] = verdict
    head = compact_json(doc)
    events = action.forensics
    if events is None:
        yield (head + "\n").encode("utf-8")
        return
    # "events" comes last, as compact_json would write it: an array of
    # [timestamp, syscall, pid, result, arg_bytes], the container being the action's
    if not len(events):
        yield f'{head[:-1]},"events":[]}}\n'.encode("utf-8")
        return
    yield f'{head[:-1]},"events":[['.encode("utf-8")
    for i, rows in enumerate(_row_texts(events)):
        if i:
            yield b"],["
        yield rows.encode("utf-8")
    yield b"]]}\n"


def serialize_action(action: PublishAction) -> bytes:
    """One newline-terminated record per action; deterministic bytes."""
    return b"".join(record_pieces(action))


def parse_action(line: bytes) -> PublishAction:
    doc = json.loads(line.decode("utf-8"))
    key = IntervalKey(doc["container"], doc["interval"], doc["interval_len"])
    latent = None
    if "latent" in doc:
        latent = LatentRecord(
            key=key,
            mu=np.array(doc["latent"]["mu"], dtype=np.float64),
            logvar=np.array(doc["latent"]["logvar"], dtype=np.float64),
            recon_error=doc["latent"]["recon_error"],
        )
    verdict = None
    if "verdict" in doc:
        verdict = StabilityVerdict(doc["verdict"]["threshold"], doc["verdict"]["stable"])
    forensics = None
    if "events" in doc:
        forensics = tuple(
            ForensicEvent(row[0], key.container_id, row[1], row[2], row[3], row[4])
            for row in doc["events"]
        )
    return PublishAction(
        key=key,
        mode=PublishMode(doc["kind"]),
        latent=latent,
        forensics=forensics,
        verdict=verdict,
    )


def document_pieces(
    action: PublishAction, latent_index: str, forensics_index: str
) -> Iterator[list[Document]]:
    """`action_to_documents`'s list in pieces, in order: the head document
    with the documents of the first _ROWS_PER_PIECE events, then those of
    at most _ROWS_PER_PIECE more events at a time."""
    id_prefix = f"{action.key.container_id}/{action.key.interval_index}/"
    base = {
        "container": action.key.container_id,
        "interval": action.key.interval_index,
        "interval_start": action.key.start,
    }
    head = dict(base)
    head["kind"] = action.mode.value
    for fields in _rounded_head(action):
        if fields is not None:
            head.update(fields)
    documents: list[Document] = [(latent_index, id_prefix + "0", head)]
    events = action.forensics
    if events is not None:
        for start in range(0, len(events), _ROWS_PER_PIECE):
            rows = enumerate(events[start : start + _ROWS_PER_PIECE].rows(), start + 1)
            for ordinal, (timestamp, syscall, pid, result, arg_bytes) in rows:
                # base's keys, then the event's: the bulk payload's bytes follow this order
                document = base.copy()
                document["t"] = timestamp
                document["syscall"] = syscall
                document["pid"] = pid
                document["ret"] = result
                document["bytes"] = arg_bytes
                documents.append((forensics_index, f"{id_prefix}{ordinal}", document))
            yield documents
            documents = []
    if documents:
        yield documents


def action_to_documents(
    action: PublishAction,
    latent_index: str = DEFAULT_LATENT_INDEX,
    forensics_index: str = DEFAULT_FORENSICS_INDEX,
) -> list[Document]:
    """Bulk documents for an action: one status/latent doc, then one doc
    per raw event when forensics ship. Document ids are
    `<container>/<interval>/<ordinal>`, the head's ordinal 0 and the
    events' 1, 2, ...; the ids parse from the right, whatever the container."""
    pieces = document_pieces(action, latent_index, forensics_index)
    return [document for piece in pieces for document in piece]


def emit(
    action: PublishAction,
    sink: Sink,
    latent_index: str = DEFAULT_LATENT_INDEX,
    forensics_index: str = DEFAULT_FORENSICS_INDEX,
) -> int:
    """Publish one action; returns the exact bytes it adds to what the sink
    ships (a buffering sink ships them at a later publish, flush or close).
    The sink encodes the action itself, and its `SinkUnavailable`
    propagates."""
    return sink.publish(action, latent_index, forensics_index)


# -- the adaptive publisher --------------------------------------------------


class AdaptivePublisher:
    """Stateful per-container publish decisions over an interval stream.

    A container without a model gets a detector from the factory at its
    first interval and collects vectors for it; the interval that brings
    them to that detector's own `train.accumulation_target` trains it.
    The vectors are freed when training starts: if it raises, the error
    propagates and the container starts over with a new detector. After
    a training succeeds, intervals are scored and published adaptively.
    """

    def __init__(
        self,
        train_config: TrainConfig = TrainConfig(),
        threshold_k: float = DEFAULT_K,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        model_dir: Path | str | None = None,
        detector_factory: Callable[[], VaeStabilityDetector] | None = None,
    ):
        self.cache = IntervalCache(cache_capacity)
        self.model_dir = Path(model_dir) if model_dir is not None else None
        self.models: dict[str, VaeStabilityDetector] = {}
        self._pending: dict[str, tuple[VaeStabilityDetector, list[ActivityVector]]] = {}
        self._detector_factory = detector_factory or functools.partial(
            VaeStabilityDetector, train_config, threshold_k=threshold_k
        )

    def install_model(self, container_id: str, detector: VaeStabilityDetector) -> None:
        """Register a pre-trained detector (e.g. loaded from a bundle)."""
        self.models[container_id] = detector

    def _train_container(self, container_id: str) -> None:
        detector, vectors = self._pending.pop(container_id)
        detector.container_id = container_id
        detector.fit(vectors_to_matrix(vectors))
        self.models[container_id] = detector
        if self.model_dir is not None:
            self.model_dir.mkdir(parents=True, exist_ok=True)
            # quoted, so a container id never names a path outside model_dir
            name = urllib.parse.quote(container_id, safe="")
            save_model(detector, self.model_dir / f"{name}.model.json")
        logger.info(
            "trained model for %s on %d intervals (threshold %.6g)",
            container_id,
            len(vectors),
            detector.threshold_,
        )

    def process_interval(
        self,
        key: IntervalKey,
        events: Sequence[ForensicEvent],
        vector: ActivityVector,
    ) -> PublishAction:
        """Decide what to publish for one summarized interval.

        Only a drift action uses `events`, and it carries them as they are.
        """
        events = as_block(events)
        self.cache.push(key, events)
        container = key.container_id
        detector = self.models.get(container)
        if detector is None:
            if container not in self._pending:
                self._pending[container] = (self._detector_factory(), [])
            detector, vectors = self._pending[container]
            vectors.append(vector)
            if len(vectors) == detector.train.accumulation_target:
                self._train_container(container)
            return PublishAction(key=key, mode=PublishMode.ACCUMULATING)

        latent = detector.score_vector(vector)
        verdict = assess(latent, detector.threshold_policy_)
        if verdict.stable:
            return PublishAction(
                key=key, mode=PublishMode.LATENT_ONLY, latent=latent, verdict=verdict
            )
        return PublishAction(
            key=key,
            mode=PublishMode.LATENT_PLUS_FORENSICS,
            latent=latent,
            forensics=events,
            verdict=verdict,
        )


class StandardPublisher:
    """Conventional baseline: cache the interval, ship all forensics."""

    def __init__(self, cache_capacity: int = DEFAULT_CACHE_CAPACITY):
        self.cache = IntervalCache(cache_capacity)

    def process_interval(
        self,
        key: IntervalKey,
        events: Sequence[ForensicEvent],
        vector: ActivityVector,
    ) -> PublishAction:
        events = as_block(events)
        self.cache.push(key, events)
        return PublishAction(key=key, mode=PublishMode.FORENSICS_ONLY, forensics=events)
