"""Interval bucketing and activity-vector extraction.

Events are bucketed per container into half-open windows
[k*L, (k+1)*L) and each window is reduced to a fixed-schema vector of
non-negative statistics:

    [ per-syscall counts (66, alphabetical by base name) |
      per-category counts (10, taxonomy order)           |
      total events | error returns | distinct pids | total arg bytes ]

Feature order is canonical so any two runs produce identical layouts.
Empty windows between occupied ones yield all-zero vectors; a silent
container should still be scored, not skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from vaeguard.errors import ForeignEvent, OutOfOrderTimestamp
from vaeguard.events import ForensicEvent
from vaeguard.taxonomy import (
    TRACKED_CATEGORIES,
    TRACKED_SYSCALLS,
    classify_syscall,
)

SCHEMA_VERSION = 1

DEFAULT_INTERVAL_LEN = 30.0

AGGREGATE_FEATURES = ("total_events", "error_returns", "distinct_pids", "total_arg_bytes")

FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"syscall:{name}" for name in TRACKED_SYSCALLS)
    + tuple(f"category:{cat.value}" for cat in TRACKED_CATEGORIES)
    + AGGREGATE_FEATURES
)

FEATURE_DIM = len(FEATURE_NAMES)

# tracked syscall name -> (its count position, its category's count position)
_SYSCALL_SLOTS: dict[str, tuple[int, int]] = {
    name: (
        i,
        len(TRACKED_SYSCALLS) + TRACKED_CATEGORIES.index(classify_syscall(name)),
    )
    for i, name in enumerate(TRACKED_SYSCALLS)
}
_TOTAL = FEATURE_DIM - 4
_ERRORS = FEATURE_DIM - 3
_PIDS = FEATURE_DIM - 2
_ARG_BYTES = FEATURE_DIM - 1


def feature_index(name: str) -> int:
    """Position of a named feature in the vector (see FEATURE_NAMES)."""
    return FEATURE_NAMES.index(name)


@dataclass(frozen=True)
class IntervalKey:
    container_id: str
    interval_index: int
    length: float = DEFAULT_INTERVAL_LEN

    def __post_init__(self):
        if self.interval_index < 0:
            raise ValueError("interval_index must be >= 0")
        if self.length <= 0:
            raise ValueError("interval length must be > 0")

    @property
    def start(self) -> float:
        return self.interval_index * self.length

    @property
    def end(self) -> float:
        return (self.interval_index + 1) * self.length


@dataclass
class ActivityVector:
    key: IntervalKey
    features: np.ndarray
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape != (FEATURE_DIM,):
            raise ValueError(
                f"expected {FEATURE_DIM} features, got shape {self.features.shape}"
            )


def window_events(
    events: Iterable[ForensicEvent],
    interval_len: float = DEFAULT_INTERVAL_LEN,
) -> Iterator[tuple[IntervalKey, list[ForensicEvent]]]:
    """Group a time-ordered single-container stream into intervals.

    Emits (key, events) pairs from the first occupied interval through the
    last, including empty gaps in between. The event with timestamp t lands
    in interval floor(t / interval_len).
    """
    if interval_len <= 0:
        raise ValueError("interval_len must be > 0")

    container: str | None = None
    current_index: int | None = None
    bucket: list[ForensicEvent] = []
    floor = math.floor

    for position, event in enumerate(events):
        if container is None:
            container = event.container_id
        elif event.container_id != container:
            raise ForeignEvent(
                f"stream mixes containers {container!r} and {event.container_id!r};"
                " split per container before windowing"
            )
        index = floor(event.timestamp / interval_len)
        if index != current_index:
            if current_index is None:
                current_index = index
            elif index < current_index:
                raise OutOfOrderTimestamp(position)
            else:
                yield IntervalKey(container, current_index, interval_len), bucket
                for gap in range(current_index + 1, index):
                    yield IntervalKey(container, gap, interval_len), []
                bucket = []
                current_index = index
        bucket.append(event)

    if current_index is not None and container is not None:
        yield IntervalKey(container, current_index, interval_len), bucket


def split_by_container(
    events: Iterable[ForensicEvent],
) -> dict[str, list[ForensicEvent]]:
    """Partition a mixed stream per container, preserving order of first use."""
    streams: dict[str, list[ForensicEvent]] = {}
    for event in events:
        streams.setdefault(event.container_id, []).append(event)
    return streams


def summarize_interval(
    key: IntervalKey, events: Sequence[ForensicEvent]
) -> ActivityVector:
    """Reduce one interval's events to its activity vector.

    Untracked syscalls do not get their own count but still feed the
    aggregate features, so novel activity perturbs the vector.
    """
    container_id = key.container_id
    start, end = key.start, key.end
    counts: dict[str, int] = {}
    pids: set[int] = set()
    errors = 0
    arg_bytes = 0.0
    for timestamp, container, syscall, pid, result, nbytes in events:
        if container != container_id:
            raise ForeignEvent(
                f"event container {container!r} does not match"
                f" interval container {container_id!r}"
            )
        if not start <= timestamp < end:
            raise ForeignEvent(
                f"event at t={timestamp} outside interval [{start}, {end})"
            )
        counts[syscall] = counts.get(syscall, 0) + 1
        if result < 0:
            errors += 1
        # summed as float in event order, so the total rounds as it always has
        arg_bytes += float(nbytes)
        pids.add(pid)

    features = np.zeros(FEATURE_DIM, dtype=np.float64)
    for syscall, count in counts.items():
        slots = _SYSCALL_SLOTS.get(syscall)
        if slots is not None:
            features[slots[0]] = count
            features[slots[1]] += count
    features[_TOTAL] = sum(counts.values())
    features[_ERRORS] = errors
    features[_PIDS] = len(pids)
    features[_ARG_BYTES] = arg_bytes
    return ActivityVector(key=key, features=features)


def summarize_stream(
    events: Iterable[ForensicEvent],
    interval_len: float = DEFAULT_INTERVAL_LEN,
) -> Iterator[tuple[IntervalKey, list[ForensicEvent], ActivityVector]]:
    """Window then summarize a single-container stream."""
    for key, group in window_events(events, interval_len):
        yield key, group, summarize_interval(key, group)


def vectors_to_matrix(vectors: Sequence[ActivityVector]) -> np.ndarray:
    if not vectors:
        return np.empty((0, FEATURE_DIM), dtype=np.float64)
    return np.stack([v.features for v in vectors])

