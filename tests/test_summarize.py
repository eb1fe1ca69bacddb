import dataclasses
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaeguard.errors import DataError, ForeignEvent, InvalidConfig, OutOfOrderTimestamp
from vaeguard.events import EventBlock, ForensicEvent, as_block, read_trace, write_trace
from vaeguard.pipeline import summarize_trace
from vaeguard.scenarios import CPUMINER_PHASES, ScenarioConfig, gen_cpuminer_scenario
from vaeguard.summarize import (
    FEATURE_DIM,
    FEATURE_NAMES,
    MAX_WINDOWS,
    IntervalKey,
    _INDEX_PIECE,
    _SYSCALL_SLOTS,
    split_by_container,
    summarize_interval,
    interval_stream,
    vectors_to_matrix,
)
from vaeguard.vae import LatentRecord

OPENAT = FEATURE_NAMES.index("syscall:openat")
CLOSE = FEATURE_NAMES.index("syscall:close")
FILE_DIR = FEATURE_NAMES.index("category:file_dir_access")
TOTAL = FEATURE_NAMES.index("total_events")
ERRORS = FEATURE_NAMES.index("error_returns")
PIDS = FEATURE_NAMES.index("distinct_pids")
ARG_BYTES = FEATURE_NAMES.index("total_arg_bytes")


def ev(t, sc="openat", pid=1, ret=0, arg_bytes=0, c="box"):
    return ForensicEvent(t, c, sc, pid, ret, arg_bytes)


def test_schema_layout():
    assert FEATURE_DIM == 66 + 10 + 4
    assert len(FEATURE_NAMES) == FEATURE_DIM
    assert FEATURE_NAMES[-4:] == (
        "total_events",
        "error_returns",
        "distinct_pids",
        "total_arg_bytes",
    )


def test_window_half_open_boundary():
    rows = list(interval_stream([ev(0.0), ev(29.9), ev(30.0)], 30.0))
    assert [key.interval_index for key, _, _ in rows] == [0, 1]
    assert [len(g) for _, g, _ in rows] == [2, 1]


def test_window_emits_empty_gaps():
    rows = list(interval_stream([ev(5.0), ev(65.0)], 30.0))
    assert [key.interval_index for key, _, _ in rows] == [0, 1, 2]
    assert [len(g) for _, g, _ in rows] == [1, 0, 1]
    assert not rows[1][2].any()


def test_window_count_is_bounded_before_the_gap_is_emitted():
    widest = list(interval_stream([ev(0.5), ev(MAX_WINDOWS - 0.5)], 1.0))
    assert [key.interval_index for key, _, _ in widest[::MAX_WINDOWS - 1]] == [0, MAX_WINDOWS - 1]
    too_wide = interval_stream([ev(0.5), ev(MAX_WINDOWS + 0.5)], 1.0)
    assert next(too_wide)[0].interval_index == 0
    with pytest.raises(InvalidConfig, match=f"{MAX_WINDOWS + 1} intervals"):
        next(too_wide)


def test_window_empty_input():
    assert list(interval_stream([], 30.0)) == []


def test_window_key_invariant():
    ((key, _, _),) = interval_stream([ev(61.0)], 30.0)
    assert key.interval_index == 2
    assert key.start == 60.0
    assert key.start == key.interval_index * key.length


def test_window_holds_an_event_that_floor_division_misplaces():
    # 1.7 / 0.1 floors to 17, but interval 17 starts at 17 * 0.1 > 1.7
    ((key, events, _),) = summarize_trace([ev(1.7)], 0.1)["box"]
    assert key.interval_index == 16
    assert key.start <= 1.7 < key.end


def _stream_indices(t: np.ndarray, length: float) -> np.ndarray:
    """The interval index interval_stream gives each t, as float64: the
    floor of t / L, stepped to the interval whose edges hold t."""
    k = np.floor(t / length)
    k -= k * length > t
    k += (k + 1.0) * length <= t
    return k


@pytest.mark.parametrize("length", [0.1, 1e-3, 0.3, 1.0, 7.0, 30.0])
def test_interval_bounds_say_what_the_interval_index_says(length):
    """summarize_interval accepts events by two bounds, start <= t and
    t < end; on every edge (as IntervalKey computes it) and one ulp either
    side, those hold exactly where the per-event interval index is the key's."""
    indices = np.r_[0:2000, 10**7 : 10**7 + 1000]
    keys = [IntervalKey("box", int(k), length) for k in indices]
    starts = np.array([key.start for key in keys])
    ends = np.array([key.end for key in keys])
    for edge in (starts, ends):
        for t in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
            indexed = _stream_indices(t, length) == indices
            assert (((starts <= t) & (t < ends)) == indexed).all()
            for i in [*range(40), *range(-10, 0)]:
                try:
                    summarize_interval(keys[i], [ev(float(t[i]))])
                    accepted = True
                except ForeignEvent:
                    accepted = False
                assert accepted == indexed[i]


@st.composite
def _trace_over_few_intervals(draw):
    """A finite interval length and a sorted trace spanning at most 42 of
    its intervals: timestamps on an interval edge (computed as
    IntervalKey computes it), one ulp either side of one, or between."""
    length = draw(st.floats(1e-6, 1e3))
    first = draw(st.integers(0, 10**6))
    times = []
    for offset, place in draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.one_of(st.sampled_from("<=>"), st.floats(0.0, 1.0))),
            min_size=1,
            max_size=30,
        )
    ):
        edge = (first + offset) * length
        if place == "<":
            edge = math.nextafter(edge, -math.inf)
        elif place == ">":
            edge = math.nextafter(edge, math.inf)
        elif place != "=":
            edge += place * length
        times.append(max(edge, 0.0))
    return length, sorted(times)


@settings(max_examples=300, deadline=None)
@given(_trace_over_few_intervals())
def test_every_interval_holds_its_events(trace):
    length, times = trace
    rows = summarize_trace([ev(t) for t in times], length)["box"]
    assert sum(len(events) for _, events, _ in rows) == len(times)
    for key, events, _ in rows:
        assert all(key.start <= event.timestamp < key.end for event in events)


def test_summarize_counts():
    key = IntervalKey("box", 0, 30.0)
    events = [ev(1.0)] * 3 + [ev(2.0, sc="close")] * 2
    features = summarize_interval(key, events)
    assert features[OPENAT] == 3
    assert features[CLOSE] == 2
    assert features[FILE_DIR] == 5
    assert features[TOTAL] == 5


def test_summarize_empty_group_is_zero_vector():
    assert not summarize_interval(IntervalKey("box", 4, 30.0), []).any()


def test_summarize_error_returns():
    key = IntervalKey("box", 0, 30.0)
    events = [ev(1.0, ret=0), ev(1.1, ret=-2), ev(1.2, ret=4)]
    assert summarize_interval(key, events)[ERRORS] == 1


def test_summarize_untracked_feeds_aggregates_only():
    key = IntervalKey("box", 0, 30.0)
    features = summarize_interval(
        key, [ev(1.0, sc="gettimeofday", pid=9, arg_bytes=100)]
    )
    assert features[TOTAL] == 1
    assert features[ARG_BYTES] == 100
    assert features[PIDS] == 1
    assert features.sum() == 102  # nothing else incremented


def test_summarize_distinct_pids_and_bytes():
    key = IntervalKey("box", 0, 30.0)
    events = [ev(1.0, pid=1, arg_bytes=10), ev(1.1, pid=2), ev(1.2, pid=1)]
    features = summarize_interval(key, events)
    assert features[PIDS] == 2
    assert features[ARG_BYTES] == 10


def test_summarize_rejects_foreign_container():
    with pytest.raises(ForeignEvent):
        summarize_interval(IntervalKey("box", 0, 30.0), [ev(1.0, c="other")])


def test_summarize_rejects_event_outside_window():
    with pytest.raises(ForeignEvent):
        summarize_interval(IntervalKey("box", 0, 30.0), [ev(31.0)])


@pytest.mark.parametrize(
    "key, times, named",
    [
        # 10**18 * 0.1 and (10**18 + 1) * 0.1 are the same float64: no t lies between
        (IntervalKey("box", 10**18, 0.1), [1e17], "t=1e+17 outside interval [1e+17, 1e+17)"),
        (IntervalKey("box", 0, 30.0), [1.0, math.nan, math.inf], "t=nan outside interval [0.0, 30.0)"),
        (IntervalKey("box", 0, 30.0), [1.0, 29.0, math.inf], "t=inf outside interval [0.0, 30.0)"),
        (IntervalKey("box", 1, 30.0), [30.0, -1.0, 31.0], "t=-1.0 outside interval [30.0, 60.0)"),
    ],
)
def test_summarize_names_the_first_event_its_bounds_reject(key, times, named):
    """The event named is the first that fails start <= t < end, and a
    container is checked before a time: an event of another container
    after it does not change what is named, one in its place does."""
    events = [ev(t) for t in times]
    first = next(i for i, t in enumerate(times) if not key.start <= t < key.end)
    with pytest.raises(ForeignEvent) as raised:
        summarize_interval(key, events)
    assert str(raised.value) == f"event at {named}"
    with pytest.raises(ForeignEvent) as raised:
        summarize_interval(key, [*events, ev(key.start, c="other")])
    assert str(raised.value) == f"event at {named}"
    events[first] = ev(times[first], c="other")
    with pytest.raises(ForeignEvent) as raised:
        summarize_interval(key, events)
    assert str(raised.value) == "event container 'other' does not match interval container 'box'"


def test_permutation_invariance():
    key = IntervalKey("box", 0, 30.0)
    rng = np.random.default_rng(5)
    events = [
        ev(float(t), sc=str(sc), pid=int(pid), ret=int(ret), arg_bytes=int(b))
        for t, sc, pid, ret, b in zip(
            rng.uniform(0, 30, 50),
            rng.choice(["openat", "close", "socket", "futex"], 50),
            rng.integers(1, 5, 50),
            rng.choice([0, -1], 50),
            rng.integers(0, 100, 50),
        )
    ]
    shuffled = list(events)
    rng.shuffle(shuffled)
    a = summarize_interval(key, events)
    b = summarize_interval(key, shuffled)
    np.testing.assert_array_equal(a, b)


def test_additivity_except_distinct_pids():
    """Counts and sums add elementwise for disjoint event sets; the
    distinct-pid feature adds too when the pid sets are disjoint."""
    key = IntervalKey("box", 0, 30.0)
    group_a = [ev(1.0, pid=1), ev(2.0, sc="close", pid=1, ret=-1, arg_bytes=5)]
    group_b = [ev(3.0, sc="socket", pid=2), ev(4.0, sc="futex", pid=3)]
    combined = summarize_interval(key, group_a + group_b)
    np.testing.assert_array_equal(
        combined, summarize_interval(key, group_a) + summarize_interval(key, group_b)
    )


def test_a_row_holds_its_features_as_an_array_and_a_latent_record_no_key():
    """The third item of each row, an empty interval's included, is a
    float64 array of shape (FEATURE_DIM,); the key is the row's first item
    and the publish action's, never the latent record's."""
    events = [ev(float(t), sc=sc) for t, sc in zip(range(90), ["openat", "close", "socket"] * 30)]
    rows = list(interval_stream(events + [ev(125.0)], 30.0))
    assert [len(group) for _, group, _ in rows] == [30, 30, 30, 0, 1]
    for _, _, features in rows:
        assert type(features) is np.ndarray
        assert (features.dtype, features.shape) == (np.float64, (FEATURE_DIM,))
    assert vectors_to_matrix([row[2] for row in rows]).shape == (5, FEATURE_DIM)
    assert [f.name for f in dataclasses.fields(LatentRecord)] == ["mu", "logvar", "recon_error"]


def test_cpuminer_vectors_match_golden_digest():
    """Every feature bit of a short six-phase cpuminer trace, read back from
    its text, matches the digest of the per-event reference summary."""
    schedule = tuple(
        (5.0 * i, 5.0 * (i + 1), label) for i, label in enumerate(CPUMINER_PHASES)
    )
    events = gen_cpuminer_scenario(
        ScenarioConfig(seed=5, duration_s=30.0, phase_schedule=schedule)
    )
    buffer = io.StringIO()
    write_trace(events, buffer)
    buffer.seek(0)
    digest = hashlib.sha256()
    count = 0
    for rows in summarize_trace(list(read_trace(buffer)), 5.0).values():
        for _, _, features in rows:
            digest.update(features.tobytes())
            count += 1
    assert count == 6
    assert digest.hexdigest() == (
        "09215e4d42226053cbef92d7d2a73ab50585d6877b0fc6f306822acca50eb53c"
    )


# -- the columnar summary against a per-event loop --------------------------------


def _loop_features(events) -> np.ndarray:
    """Reference: one pass over the events, as summaries were first computed."""
    counts: dict[str, int] = {}
    pids: set[int] = set()
    errors = 0
    arg_bytes = 0.0
    for _, _, syscall, pid, result, nbytes in events:
        counts[syscall] = counts.get(syscall, 0) + 1
        errors += result < 0
        arg_bytes += float(nbytes)
        pids.add(pid)
    features = np.zeros(FEATURE_DIM, dtype=np.float64)
    for syscall, count in counts.items():
        slots = _SYSCALL_SLOTS.get(syscall)
        if slots is not None:
            features[slots[0]] = count
            features[slots[1]] += count
    features[TOTAL] = sum(counts.values())
    features[ERRORS] = errors
    features[PIDS] = len(pids)
    features[ARG_BYTES] = arg_bytes
    return features


_EVENTS = st.lists(
    st.builds(
        ev,
        st.floats(0.0, 29.999),
        sc=st.sampled_from(["openat", "close", "socket", "futex", "gettimeofday", "ptrace"]),
        pid=st.integers(0, 2**70),
        ret=st.integers(-5, 5),
        # large sizes round when added as floats, so the order of addition shows
        arg_bytes=st.one_of(st.integers(0, 100), st.integers(2**53, 2**64 - 1)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_EVENTS)
def test_summary_matches_per_event_loop_bit_for_bit(events):
    features = summarize_interval(IntervalKey("box", 0, 30.0), events)
    assert features.tobytes() == _loop_features(events).tobytes()


@st.composite
def _mixed_trace(draw):
    """A time-ordered trace of up to three containers over few intervals."""
    length, times = draw(_trace_over_few_intervals())
    events = [
        ev(
            t,
            sc=draw(st.sampled_from(["openat", "close", "futex", "gettimeofday"])),
            pid=draw(st.integers(0, 3)),
            ret=draw(st.integers(-1, 1)),
            arg_bytes=draw(st.integers(0, 100)),
            c=draw(st.sampled_from(["a", "b", "c"])),
        )
        for t in times
    ]
    return length, events


def _reference_summaries(events, length) -> dict:
    """Each container's events placed one container at a time by
    `_stream_indices`, every interval from its first to its last
    summarized by the per-event loop."""
    streams: dict[str, list] = {}
    for event in events:
        streams.setdefault(event.container_id, []).append(event)
    reference = {}
    for container, stream in streams.items():
        index = _stream_indices(np.array([e.timestamp for e in stream]), length)
        groups: dict[int, list] = {}
        for i, event in zip(index.astype(int).tolist(), stream):
            groups.setdefault(i, []).append(event)
        reference[container] = [
            (
                IntervalKey(container, i, length),
                tuple(groups.get(i, ())),
                _loop_features(groups.get(i, ())).tobytes(),
            )
            for i in range(min(groups), max(groups) + 1)
        ]
    return reference


@settings(max_examples=300, deadline=None)
@given(_mixed_trace())
def test_mixed_trace_summaries_match_a_per_container_reference(trace):
    length, events = trace
    summaries = summarize_trace(events, length)
    got = {
        container: [(key, tuple(group), features.tobytes()) for key, group, features in rows]
        for container, rows in summaries.items()
    }
    reference = _reference_summaries(events, length)
    assert list(got) == list(reference)
    assert got == reference

    rows = list(interval_stream(events, length))
    starts = [key.start for key, group, _ in rows if len(group)]
    assert starts == sorted(starts)
    last: dict[str, int] = {}
    for key, group, features in rows:
        assert key.interval_index == last.get(key.container_id, key.interval_index - 1) + 1
        last[key.container_id] = key.interval_index
        # the stream skips the ForeignEvent check, not the one vector implementation
        assert features.tobytes() == summarize_interval(key, group).tobytes()


@pytest.mark.parametrize("interval_len", [math.inf, math.nan, 0.0, -30.0])
def test_interval_length_must_be_finite_and_positive(interval_len):
    with pytest.raises(InvalidConfig):
        summarize_trace([ev(1.0)], interval_len)
    with pytest.raises(InvalidConfig):
        list(interval_stream([ev(1.0)], interval_len))


@pytest.mark.parametrize(
    "times, interval_len",
    [((1.0, 1e300), 1e-10), ((1.0, 1e300), 5e-324), ((2.0**60,), 1.0)],
    ids=["t/L-overflows", "subnormal-length", "edges-meet"],
)
def test_event_that_no_interval_holds_is_a_config_error(times, interval_len):
    """Where t / L is infinite, or so large that k and k + 1 are one
    float64, no interval [k*L, (k+1)*L) holds t."""
    with pytest.raises(InvalidConfig, match=f"interval length {interval_len} s"):
        summarize_trace([ev(t) for t in times], interval_len)


def test_window_rejects_time_going_back():
    with pytest.raises(OutOfOrderTimestamp) as excinfo:
        list(interval_stream([ev(1.0), ev(31.0), ev(29.0)], 30.0))
    assert excinfo.value.index == 2
    # within one interval, and across another container's events
    with pytest.raises(OutOfOrderTimestamp) as excinfo:
        list(interval_stream([ev(2.0), ev(3.0, c="other"), ev(1.0)], 30.0))
    assert excinfo.value.index == 2


@pytest.mark.parametrize(
    "index", [1, _INDEX_PIECE, _INDEX_PIECE + 1, 2 * _INDEX_PIECE + 1, 2 * _INDEX_PIECE + 5]
)
def test_out_of_order_index_counts_from_the_start_of_the_whole_input(index):
    """The order is checked in pieces, each overlapping the one before by
    an event; the index still counts from the first event."""
    times = list(range(index + 2))
    times[index - 1], times[index] = times[index], times[index - 1]
    with pytest.raises(OutOfOrderTimestamp) as excinfo:
        list(interval_stream([ev(float(t)) for t in times], 1e6))
    assert excinfo.value.index == index


def test_split_keeps_first_use_order_and_slices_one_copy():
    """Each container's stream is a view of the mixed one: a slice of one
    int32 index into the mixed stream's own columns, the split's one copy."""
    events = [ev(1.0, c="b"), ev(2.0, c="a"), ev(3.0, c="b"), ev(4.0, c="c"), ev(5.0, c="a")]
    block = as_block(events)
    streams = split_by_container(block)
    assert list(streams) == ["b", "a", "c"]
    for container, stream in streams.items():
        assert type(stream) is EventBlock
        assert stream == [e for e in events if e.container_id == container]
        assert stream.tables is block.tables
        assert stream._timestamps is block.timestamps
        assert stream._index.dtype == np.int32
    assert streams["a"]._index.base is streams["c"]._index.base is not None


def test_multi_container_rows_index_the_trace():
    """The rows summarize_trace collects for a trace of several containers
    hold their windows as indexes into the trace (4 bytes per event), not
    as copies of its columns (20 bytes per event)."""
    syscalls = ("openat", "read", "close", "futex")
    events = [
        ForensicEvent(i * 0.025, f"web-{i % 4}", syscalls[i % 7 % 4], 1 + i % 5, -(i % 11 == 0), i % 97)
        for i in range(40_000)
    ]
    block = as_block(events)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summaries = summarize_trace(block, 60.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = [row for rows in summaries.values() for row in rows]
    assert len(rows) == 4 * 17
    assert {type(group) for _, group, _ in rows} == {EventBlock}
    assert sum(len(group) for _, group, _ in rows) == len(events)
    for container, (_, group, _) in zip(summaries, rows[1::17]):
        assert group == [e for e in events if e.container_id == container and 60.0 <= e.timestamp < 120.0]
    assert held / len(events) <= 10.0


@pytest.mark.parametrize(
    "times, index",
    [
        ([-1.0, 1.0], 0),
        ([math.nan], 0),
        ([1.0, math.nan, 3.0], 1),
        ([1.0, 2.0, math.inf], 2),
        # the infinite t comes before the event that goes back
        ([1.0, math.inf, math.inf, 3.0], 1),
    ],
)
def test_a_timestamp_no_interval_holds_is_a_data_error(times, index):
    """Named with its event before any row, not as an interval too short
    for it, an interval index below 0, or an event that goes back."""
    rows = interval_stream([ev(t) for t in times], 30.0)
    with pytest.raises(DataError, match=f"event {index} has t={times[index]}, which no interval holds"):
        next(rows)


def test_a_nan_timestamp_is_found_past_the_first_piece():
    times = [float(t) for t in range(_INDEX_PIECE + 8)]
    times[_INDEX_PIECE + 3] = math.nan
    with pytest.raises(DataError, match=f"event {_INDEX_PIECE + 3} has t=nan"):
        next(interval_stream([ev(t) for t in times], 1e6))


def test_single_container_rows_are_views_of_the_trace_block():
    block = as_block([ev(float(t)) for t in range(0, 90, 7)])
    rows = summarize_trace(block, 30.0)["box"]
    assert [len(group) for _, group, _ in rows] == [5, 4, 4]
    assert all(np.shares_memory(group.timestamps, block.timestamps) for _, group, _ in rows)
