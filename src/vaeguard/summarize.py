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

Everything here works on `EventBlock` columns (a plain event list is
turned into a block first): a stream is split per container by one
stable sort, each window is a zero-copy slice found from the floored
timestamps, and a window's vector comes from `np.bincount` over its
syscall codes and per-tail tables, bit for bit what a per-event loop
gives. The interval length must be finite and > 0 (InvalidConfig).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from vaeguard.errors import ForeignEvent, InvalidConfig, OutOfOrderTimestamp
from vaeguard.events import EventBlock, ForensicEvent, as_block
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
        if not 0.0 < self.length < math.inf:
            raise ValueError("interval length must be finite and > 0")

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

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape != (FEATURE_DIM,):
            raise ValueError(
                f"expected {FEATURE_DIM} features, got shape {self.features.shape}"
            )


def check_interval_len(interval_len: float) -> None:
    """Reject an interval length that is not finite and > 0."""
    if not (0.0 < interval_len < math.inf):
        raise InvalidConfig(f"interval length must be finite and > 0, got {interval_len}")


def window_events(
    events: Iterable[ForensicEvent],
    interval_len: float = DEFAULT_INTERVAL_LEN,
) -> Iterator[tuple[IntervalKey, EventBlock]]:
    """Group a time-ordered single-container stream into intervals.

    Emits (key, events) pairs from the first occupied interval through the
    last, including empty gaps in between; each group is a slice of the
    stream's block. The event with timestamp t lands in interval
    floor(t / interval_len).
    """
    check_interval_len(interval_len)
    block = as_block(events)
    if not len(block):
        return
    codes = block.container_codes
    containers = block.tables.containers
    index = np.floor(block.timestamps / interval_len)
    foreign = np.flatnonzero(codes != codes[0])
    backwards = np.flatnonzero(index[1:] < index[:-1]) + 1
    # the first fault in stream order; an event's container is checked first
    if foreign.size and (not backwards.size or foreign[0] <= backwards[0]):
        raise ForeignEvent(
            f"stream mixes containers {containers[codes[0]]!r} and"
            f" {containers[codes[foreign[0]]]!r}; split per container before windowing"
        )
    if backwards.size:
        raise OutOfOrderTimestamp(int(backwards[0]))

    container = containers[codes[0]]
    bounds = [0, *(np.flatnonzero(index[1:] != index[:-1]) + 1).tolist(), len(block)]
    previous = None
    for start, stop in zip(bounds, bounds[1:]):
        current = int(index[start])
        if previous is not None:
            for gap in range(previous + 1, current):
                yield IntervalKey(container, gap, interval_len), block[start:start]
        yield IntervalKey(container, current, interval_len), block[start:stop]
        previous = current


def split_by_container(
    events: Iterable[ForensicEvent],
) -> dict[str, EventBlock]:
    """Partition a mixed stream per container, preserving order of first use.

    A single-container stream is returned as it is; otherwise each
    container's events are one slice of a copy grouped by container.
    """
    block = as_block(events)
    codes = block.container_codes
    counts = np.bincount(codes)
    present = np.flatnonzero(counts)
    containers = block.tables.containers
    if present.size <= 1:
        return {containers[code]: block for code in present.tolist()}
    order = np.argsort(codes, kind="stable")
    grouped = block.take(order)
    stops = np.cumsum(counts[present])
    starts = stops - counts[present]
    streams: dict[str, EventBlock] = {}
    # a stable sort keeps each container's first event at the front of its run
    for i in np.argsort(order[starts], kind="stable").tolist():
        streams[containers[present[i]]] = grouped[int(starts[i]) : int(stops[i])]
    return streams


@functools.lru_cache(maxsize=16)
def _slot_matrix(syscalls: tuple[str, ...]) -> np.ndarray:
    """Row per syscall name with a 1 at its count and its category's count
    (all zero for an untracked name), so counts @ matrix fills both."""
    matrix = np.zeros((len(syscalls), FEATURE_DIM), dtype=np.float64)
    for row, name in enumerate(syscalls):
        slots = _SYSCALL_SLOTS.get(name)
        if slots is not None:
            matrix[row, list(slots)] = 1.0
    matrix.flags.writeable = False
    return matrix


def _raise_foreign(key: IntervalKey, block: EventBlock, code: int) -> None:
    """ForeignEvent for the first event of `block` outside `key`, checking
    its container before its time as a per-event loop would."""
    start, end = key.start, key.end
    t = block.timestamps
    wrong_container = block.container_codes != code
    outside = ~((t >= start) & (t < end))
    first = int(np.flatnonzero(wrong_container | outside)[0])
    if wrong_container[first]:
        container = block.tables.containers[block.container_codes[first]]
        raise ForeignEvent(
            f"event container {container!r} does not match"
            f" interval container {key.container_id!r}"
        )
    raise ForeignEvent(f"event at t={float(t[first])} outside interval [{start}, {end})")


def summarize_interval(
    key: IntervalKey, events: Sequence[ForensicEvent]
) -> ActivityVector:
    """Reduce one interval's events to its activity vector.

    Untracked syscalls do not get their own count but still feed the
    aggregate features, so novel activity perturbs the vector. Counts are
    exact in float64, and the byte total is summed in event order, so
    the vector is the same as a per-event loop's, bit for bit.
    """
    block = as_block(events)
    tables = block.tables
    if not len(block):
        return ActivityVector(key=key, features=np.zeros(FEATURE_DIM, dtype=np.float64))
    try:
        code = tables.containers.index(key.container_id)
    except ValueError:
        code = -1
    t = block.timestamps
    if (block.container_codes != code).any() or not (
        t.min() >= key.start and t.max() < key.end
    ):
        _raise_foreign(key, block, code)

    counts = np.bincount(block.syscall_codes, minlength=len(tables.syscalls))
    features = counts @ _slot_matrix(tables.syscalls)
    tails = block.tail_codes
    features[_TOTAL] = len(block)
    features[_ERRORS] = np.count_nonzero(tables.error_tails[tails])
    features[_PIDS] = np.count_nonzero(np.bincount(tables.pid_codes[tails]))
    # cumsum adds left to right, as `total += float(nbytes)` per event does
    features[_ARG_BYTES] = np.cumsum(tables.byte_floats[tails])[-1]
    return ActivityVector(key=key, features=features)


def summarize_stream(
    events: Iterable[ForensicEvent],
    interval_len: float = DEFAULT_INTERVAL_LEN,
) -> Iterator[tuple[IntervalKey, EventBlock, ActivityVector]]:
    """Window then summarize a single-container stream."""
    for key, group in window_events(events, interval_len):
        yield key, group, summarize_interval(key, group)


def vectors_to_matrix(vectors: Sequence[ActivityVector]) -> np.ndarray:
    if not vectors:
        return np.empty((0, FEATURE_DIM), dtype=np.float64)
    return np.stack([v.features for v in vectors])

