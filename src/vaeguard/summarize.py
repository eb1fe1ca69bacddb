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
turned into a block first). `interval_stream` walks a time-ordered
trace once: each window is a zero-copy slice ended by one binary
search, split per container by one stable sort, and a window's vector
comes from `np.bincount` over its syscall codes and per-tail tables,
bit for bit what a per-event loop gives. No array as long as the trace
is built beside its block. The interval length must be finite and > 0
(InvalidConfig).
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
# most intervals one container's stream may span, empty gaps included:
# about 35 days at the default length
MAX_WINDOWS = 100_000
# events per piece of a pass over many timestamps: bounds its temporaries, not a limit
_INDEX_PIECE = 65_536

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


def _step_into_interval(k, t, interval_len: float):
    """k = floor(t / L), a float or an array, stepped down or up to the
    interval whose edges (as IntervalKey computes them) hold t: the floor
    is one off when L is not a power of two (17 * 0.1 > 1.7)."""
    k = k - (k * interval_len > t)
    return k + ((k + 1.0) * interval_len <= t)


def _interval_indices(timestamps: np.ndarray, interval_len: float) -> np.ndarray:
    """The k (as float64) of the interval [k*L, (k+1)*L) that holds each
    timestamp (`_step_into_interval`). It is computed in pieces of
    _INDEX_PIECE events, so when it checks a long interval's events only
    the result is as long as they are."""
    k = np.empty(len(timestamps), dtype=np.float64)
    for start in range(0, len(timestamps), _INDEX_PIECE):
        t = timestamps[start : start + _INDEX_PIECE]
        k[start : start + _INDEX_PIECE] = _step_into_interval(
            np.floor(t / interval_len), t, interval_len
        )
    return k


def interval_stream(
    events: Iterable[ForensicEvent], interval_len: float = DEFAULT_INTERVAL_LEN
) -> Iterator[tuple[IntervalKey, EventBlock, ActivityVector]]:
    """(key, events, vector) per interval of a time-ordered trace, window
    by window, and within a window per container in the order of its
    first event there; a container's empty intervals come right before
    its next occupied one. The events are a slice of the trace's block,
    or of a window's copy when the window holds several containers.

    A timestamp that goes back raises OutOfOrderTimestamp before any row.
    InvalidConfig is raised before a gap that makes a container span more
    than MAX_WINDOWS intervals, and for an event that no interval of this
    length holds in float64."""
    check_interval_len(interval_len)
    block = as_block(events)
    t = block.timestamps
    # in pieces, so no mask is as long as the stream
    for start in range(1, len(t), _INDEX_PIECE):
        piece = t[start - 1 : start + _INDEX_PIECE]
        backwards = np.flatnonzero(piece[1:] < piece[:-1])
        if backwards.size:
            raise OutOfOrderTimestamp(start + int(backwards[0]))
    spans: dict[str, tuple[int, int]] = {}  # container -> first and last occupied interval
    start = 0
    while start < len(t):
        first_t = float(t[start])
        # where t / L overflows, floor division gives nan, which no interval holds
        k = _step_into_interval((first_t / interval_len) // 1.0, first_t, interval_len)
        end = (k + 1.0) * interval_len
        if not k * interval_len <= first_t < end:
            raise InvalidConfig(
                f"interval length {interval_len} s is too short for t={first_t}:"
                " no interval [k*L, (k+1)*L) holds it in float64; use a longer interval"
            )
        stop = int(np.searchsorted(t, end, side="left"))
        index = int(k)
        for container, group in split_by_container(block[start:stop]).items():
            first, last = spans.get(container, (index, index - 1))
            if index - first >= MAX_WINDOWS:
                raise InvalidConfig(
                    f"container {container!r} spans {index - first + 1} intervals"
                    f" of {interval_len} s, more than {MAX_WINDOWS}; use a longer interval"
                )
            spans[container] = (first, index)
            for gap in range(last + 1, index):
                key = IntervalKey(container, gap, interval_len)
                yield key, group[:0], summarize_interval(key, group[:0])
            key = IntervalKey(container, index, interval_len)
            yield key, group, summarize_interval(key, group)
        start = stop


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
    outside = _interval_indices(t, key.length) != key.interval_index
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
    if (block.container_codes != code).any() or (
        _interval_indices(block.timestamps, key.length) != key.interval_index
    ).any():
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


def vectors_to_matrix(vectors: Sequence[ActivityVector]) -> np.ndarray:
    if not vectors:
        return np.empty((0, FEATURE_DIM), dtype=np.float64)
    return np.stack([v.features for v in vectors])

