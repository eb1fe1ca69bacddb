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
(`_ROWS_PER_PIECE`, taken by `event_pieces`), so what publishing one
allocates at a time does not grow with the drift: `record_pieces` yields
the newline-delimited record (the head, then the events' text piece by
piece, then the closing text), which `serialize_action` joins, and
`sinks.encode_bulk_request` the bulk lines of one piece. Both encoders
format a piece's timestamps with one call (`timestamp_texts`) and look
up each event's syscall and pid/ret/bytes text by its codes: the record
in the texts the block's `EventTables` wrote once, when it was built,
and the bulk lines in texts built for the piece's distinct codes.
Both write the head's latent and verdict fields from one text,
`head_texts`: each array, and each of the error and the threshold, is
one "%.8g" format, which is already what compact_json writes for the
value rounded to 8 significant digits but for the few tokens
`_round8_text` names; those are written from the float they read as
(`json_text`). No rounded float or dict is built on the publish path.
`action_to_documents` is the bulk documents as a list of dicts, with
the rounded floats, which nothing on the publish path builds.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
import math
import urllib.parse
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from vaeguard.events import EventBlock, ForensicEvent, as_block, compact_json
from vaeguard.summarize import FEATURE_DIM, IntervalKey, vectors_to_matrix
from vaeguard.thresholds import DEFAULT_K, StabilityVerdict, assess
from vaeguard.vae import LatentRecord, TrainConfig, VaeStabilityDetector, save_model

if TYPE_CHECKING:
    # sinks imports this module's codec at run time
    from vaeguard.sinks import Sink

logger = logging.getLogger(__name__)

DEFAULT_LATENT_INDEX = "stability-latent"
DEFAULT_FORENSICS_INDEX = "stability-forensics"
# Raw intervals each container's ring buffer keeps.
DEFAULT_CACHE_CAPACITY = 4

# (index name, document id, source)
Document = tuple[str, str, dict]


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


def _round8(value: float) -> float:
    """8 significant digits: plenty for published monitoring records and
    roughly half the wire size of full float64 repr."""
    return float(f"{value:.8g}")


def json_text(value) -> str:
    """What compact_json writes for `value`: an exact int as str writes it
    and a finite float as repr does, which is what json does, without a
    call to the encoder, and anything else through it."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is float and math.isfinite(value):
        return repr(value)
    return compact_json(value)


def _round8_text(values: list) -> str:
    """What compact_json writes for [_round8(v) for v in values], without
    its brackets. A "%.8g" token is that text already, except one with no
    "." (an integral value, -0, nan or inf), with "e+" (from 1e8 up) or
    with "e-3" (an exponent of -30 to -39, or of -300 and below, which
    takes in the subnormal range, where fewer digits than 15 may not read
    back as the value they name); such a token is written from the float
    it reads as."""
    text = ("%.8g," * len(values))[:-1] % tuple(values)
    if text.count(".") == len(values) and "e+" not in text and "e-3" not in text:
        return text
    return ",".join(
        token if "." in token and "e+" not in token and "e-3" not in token
        else json_text(float(token))
        for token in text.split(",")
    )


def head_texts(action: PublishAction) -> tuple[str, str] | None:
    """The text of the action's latent fields and of its verdict fields,
    each as compact_json writes them inside their object, every number
    rounded by _round8; None for an action with neither (a mode's shape
    gives an action both or neither)."""
    latent, verdict = action.latent, action.verdict
    if latent is None:
        return None
    return (
        f'"mu":[{_round8_text(latent.mu.tolist())}],'
        f'"logvar":[{_round8_text(latent.logvar.tolist())}],'
        f'"recon_error":{_round8_text([latent.recon_error])}',
        f'"threshold":{_round8_text([verdict.threshold])},'
        f'"stable":{"true" if verdict.stable else "false"}',
    )


# Events encoded per piece of a record or of the bulk lines, which bounds
# the per-event strings alive at once.
_ROWS_PER_PIECE = 4096


def event_pieces(events: EventBlock) -> Iterator[EventBlock]:
    """`events` in consecutive slices of at most _ROWS_PER_PIECE events."""
    for start in range(0, len(events), _ROWS_PER_PIECE):
        yield events[start : start + _ROWS_PER_PIECE]


def timestamp_texts(piece: EventBlock) -> list[str]:
    """The text compact_json writes for each timestamp of `piece` (NaN and
    Infinity too), from one compact_json call: no float's text holds a comma."""
    return compact_json(piece.timestamps.tolist())[1:-1].split(",")


def _row_texts(events: EventBlock) -> Iterator[str]:
    """The text compact_json writes for `list(events.rows())`, without the
    outer "[[" and "]]", in pieces to be joined by "],[". Each row's
    syscall and tail text is looked up in the texts its tables built once."""
    tables = events.tables
    for piece in event_pieces(events):
        texts = [""] * (3 * len(piece))
        texts[0::3] = timestamp_texts(piece)
        texts[1::3] = tables.syscall_texts[piece.syscall_codes].tolist()
        texts[2::3] = tables.tail_texts[piece.tail_codes].tolist()
        texts[-1] = texts[-1][:-3]  # the last row's "],["
        yield "".join(texts)


def record_pieces(action: PublishAction) -> Iterator[bytes]:
    """The action's newline-terminated record in pieces, in order: the head,
    then the text of at most _ROWS_PER_PIECE events at a time, then the
    closing text. Joined, they are `serialize_action`'s bytes."""
    head = compact_json(
        {
            "kind": action.mode.value,
            "container": action.key.container_id,
            "interval": action.key.interval_index,
            "interval_len": action.key.length,
        }
    )
    texts = head_texts(action)
    if texts is not None:
        head = f'{head[:-1]},"latent":{{{texts[0]}}},"verdict":{{{texts[1]}}}}}'
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


# what a record's field may hold, by the Python types json reads it as
_JSON_KINDS = {
    (str,): "a string", (int,): "an integer", (int, float): "a number",
    (bool,): "true or false", (list,): "an array", (dict,): "an object",
}


def _field(doc: dict, name: str, *kinds: type):
    """doc[name], whose type must be one of `kinds` (a bool is not an int
    here); ValueError naming the field otherwise."""
    if name not in doc:
        raise ValueError(f"record has no {name} field")
    value = doc[name]
    if type(value) not in kinds:
        raise ValueError(f"{name} must be {_JSON_KINDS[kinds]}")
    return value


def _number(doc: dict, name: str) -> int | float:
    """The number doc[name] must be, within float range."""
    value = _field(doc, name, int, float)
    try:
        float(value)
    except OverflowError:  # an int past float range
        raise ValueError(f"{name} is beyond float range") from None
    return value


def _numbers(doc: dict, name: str) -> np.ndarray:
    """The array of numbers doc[name] must be, as float64."""
    values = _field(doc, name, list)
    if not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{name} must be an array of numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:  # an int past float range
        raise ValueError(f"{name}: a value is beyond float range") from None


def parse_action(line: bytes) -> PublishAction:
    """The action a record encodes; ValueError, naming the field where
    one is at fault, for a malformed record."""
    doc = json.loads(line.decode("utf-8"))
    if type(doc) is not dict:
        raise ValueError("a record must be a JSON object")
    key = IntervalKey(
        _field(doc, "container", str),
        _field(doc, "interval", int),
        _field(doc, "interval_len", int, float),
    )
    mode = PublishMode(_field(doc, "kind", str))
    latent = None
    if "latent" in doc:
        fields = _field(doc, "latent", dict)
        latent = LatentRecord(
            mu=_numbers(fields, "mu"),
            logvar=_numbers(fields, "logvar"),
            recon_error=_number(fields, "recon_error"),
        )
    verdict = None
    if "verdict" in doc:
        fields = _field(doc, "verdict", dict)
        verdict = StabilityVerdict(_number(fields, "threshold"), _field(fields, "stable", bool))
    forensics = None
    if "events" in doc:
        rows = doc["events"]
        if type(rows) is not list or not all(type(row) is list and len(row) == 5 for row in rows):
            raise ValueError("events must be a JSON array of 5-value arrays")
        forensics = tuple(
            ForensicEvent(t, key.container_id, syscall, pid, result, nbytes)
            for t, syscall, pid, result, nbytes in rows
        )
    return PublishAction(
        key=key,
        mode=mode,
        latent=latent,
        forensics=forensics,
        verdict=verdict,
    )


def action_to_documents(
    action: PublishAction,
    latent_index: str = DEFAULT_LATENT_INDEX,
    forensics_index: str = DEFAULT_FORENSICS_INDEX,
) -> list[Document]:
    """Bulk documents for an action: one status/latent doc, then one doc
    per raw event when forensics ship. Document ids are
    `<container>/<interval>/<ordinal>`, the head's ordinal 0 and the
    events' 1, 2, ...; the ids parse from the right, whatever the container.
    `sinks.encode_bulk_request` writes these documents' bulk lines."""
    id_prefix = f"{action.key.container_id}/{action.key.interval_index}/"
    base = {
        "container": action.key.container_id,
        "interval": action.key.interval_index,
        "interval_start": action.key.start,
    }
    head = {**base, "kind": action.mode.value}
    if action.latent is not None:
        head.update(
            mu=[_round8(v) for v in action.latent.mu.tolist()],
            logvar=[_round8(v) for v in action.latent.logvar.tolist()],
            recon_error=_round8(action.latent.recon_error),
            threshold=_round8(action.verdict.threshold),
            stable=action.verdict.stable,
        )
    documents = [(latent_index, id_prefix + "0", head)]
    if action.forensics is not None:
        rows = enumerate(action.forensics.rows(), 1)
        for ordinal, (timestamp, syscall, pid, result, arg_bytes) in rows:
            # base's keys, then the event's: the bulk lines' bytes follow this order
            source = {**base, "t": timestamp, "syscall": syscall, "pid": pid, "ret": result,
                      "bytes": arg_bytes}
            documents.append((forensics_index, f"{id_prefix}{ordinal}", source))
    return documents


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
        self._pending: dict[str, tuple[VaeStabilityDetector, list[np.ndarray]]] = {}
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
        self, key: IntervalKey, events: Sequence[ForensicEvent], features: np.ndarray
    ) -> PublishAction:
        """Decide what to publish for one summarized interval.

        Only a drift action uses `events`, and it carries them as they are.
        A vector kept for training must have shape (FEATURE_DIM,) (ValueError).
        """
        events = as_block(events)
        self.cache.push(key, events)
        container = key.container_id
        detector = self.models.get(container)
        if detector is None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape != (FEATURE_DIM,):
                raise ValueError(f"expected {FEATURE_DIM} features, got shape {features.shape}")
            if container not in self._pending:
                self._pending[container] = (self._detector_factory(), [])
            detector, vectors = self._pending[container]
            vectors.append(features)
            if len(vectors) == detector.train.accumulation_target:
                self._train_container(container)
            return PublishAction(key=key, mode=PublishMode.ACCUMULATING)

        latent = detector.score_vector(features)
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
        self, key: IntervalKey, events: Sequence[ForensicEvent], features: np.ndarray
    ) -> PublishAction:
        events = as_block(events)
        self.cache.push(key, events)
        return PublishAction(key=key, mode=PublishMode.FORENSICS_ONLY, forensics=events)
