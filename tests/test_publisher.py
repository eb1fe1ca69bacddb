import gc
import importlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import vaeguard

from conftest import fit_recording_factory, small_detector
from vaeguard.errors import SinkUnavailable
from vaeguard.events import EventBlock, ForensicEvent, as_block
from vaeguard.publisher import (
    DEFAULT_FORENSICS_INDEX,
    DEFAULT_LATENT_INDEX,
    AdaptivePublisher,
    IntervalCache,
    PublishAction,
    PublishMode,
    action_to_documents,
    emit,
    parse_action,
    serialize_action,
)
from vaeguard.sinks import FileSink
from vaeguard.summarize import FEATURE_DIM, ActivityVector, IntervalKey, vectors_to_matrix
from vaeguard.vae import TrainConfig, load_model


def key(i, container="box"):
    return IntervalKey(container, i, 30.0)


def vector(i, container="box", scale=1.0):
    rng = np.random.default_rng(i)
    features = rng.uniform(0, 10, FEATURE_DIM) * scale
    return ActivityVector(key=key(i, container), features=features)


def events_for(i, count=3, container="box"):
    return [
        ForensicEvent(i * 30.0 + j * 0.1, container, "openat", 1, 0, 0)
        for j in range(count)
    ]


# -- cache ---------------------------------------------------------------------


def test_cache_capacity_bound():
    """Each container keeps only its newest `capacity` blocks."""
    cache = IntervalCache(capacity=4)
    blocks = [as_block(events_for(i)) for i in range(6)]
    columns = [weakref.ref(block.timestamps) for block in blocks]
    for i, block in enumerate(blocks):
        cache.push(key(i), block)
    cache.push(key(0, container="other"), events_for(0, container="other"))
    del blocks, block
    gc.collect()
    assert [column() is not None for column in columns] == [False, False, True, True, True, True]


def test_cache_holds_the_pushed_block_itself():
    """A pushed block is kept as it is, not copied; a pushed list is
    copied into one block."""
    cache = IntervalCache(capacity=4)
    block = as_block(events_for(1))
    cache.push(key(1), block)
    cache.push(key(2), events_for(2))
    (_, held), (_, copied) = cache._buffers["box"]
    assert held is block
    assert isinstance(copied, EventBlock)
    assert copied == tuple(events_for(2))


@pytest.mark.parametrize("capacity", [0, -1])
def test_cache_capacity_must_be_positive(capacity):
    with pytest.raises(ValueError):
        IntervalCache(capacity=capacity)


@pytest.mark.parametrize(
    "module, name",
    [
        ("vaeguard.sinks", "SpoolDirectory"),
        ("vaeguard.publisher", "replay_spool"),
        ("vaeguard.errors", "UnknownContainer"),
        ("vaeguard.publisher", "IntervalCache.fetch_prior_intervals"),
    ],
)
def test_the_spool_and_the_cache_fetch_are_gone(module, name):
    """Nothing in the library fills, drains or reads back a spool or the cache."""
    owner = importlib.import_module(module)
    *parents, last = name.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)


# -- serialization ----------------------------------------------------------------


def make_publisher(target=8):
    config = TrainConfig(
        epochs=10, batch_size=4, accumulation_target=target, seed=3
    )
    return AdaptivePublisher(
        train_config=config,
        threshold_k=3.0,
        detector_factory=lambda: small_detector(
            accumulation_target=target, epochs=10, batch_size=4, seed=3
        ),
    )


def run_stream(publisher, n_intervals, unstable_at=(), container="box"):
    actions = []
    for i in range(n_intervals):
        scale = 5000.0 if i in unstable_at else 1.0
        actions.append(
            publisher.process_interval(
                key(i, container), events_for(i, container=container), vector(i, container, scale)
            )
        )
    return actions


# Builds every action the decision table forbids and prints how many
# PublishAction refused, then how many there are.
_INVALID_ACTIONS = """
import numpy as np
from vaeguard.publisher import PublishAction, PublishMode
from vaeguard.summarize import IntervalKey
from vaeguard.thresholds import HeuristicThreshold, assess
from vaeguard.vae import LatentRecord

k = IntervalKey("box", 0, 30.0)
stable_latent = LatentRecord(k, np.zeros(2), np.zeros(2), 0.5)
drift_latent = LatentRecord(k, np.zeros(2), np.zeros(2), 2.0)
stable = assess(stable_latent, HeuristicThreshold(1.0))
drift = assess(drift_latent, HeuristicThreshold(1.0))
ev = ()
cases = [
    dict(mode=PublishMode.LATENT_ONLY),
    dict(mode=PublishMode.LATENT_ONLY, latent=stable_latent),
    dict(mode=PublishMode.LATENT_ONLY, latent=drift_latent, verdict=drift),
    dict(mode=PublishMode.LATENT_ONLY, latent=stable_latent, verdict=stable, forensics=ev),
    dict(mode=PublishMode.LATENT_PLUS_FORENSICS, latent=drift_latent, verdict=drift),
    dict(mode=PublishMode.LATENT_PLUS_FORENSICS, latent=stable_latent, verdict=stable, forensics=ev),
    dict(mode=PublishMode.LATENT_PLUS_FORENSICS, verdict=drift, forensics=ev),
    dict(mode=PublishMode.ACCUMULATING, latent=stable_latent),
    dict(mode=PublishMode.ACCUMULATING, verdict=stable),
    dict(mode=PublishMode.ACCUMULATING, forensics=ev),
    dict(mode=PublishMode.FORENSICS_ONLY),
    dict(mode=PublishMode.FORENSICS_ONLY, forensics=ev, latent=stable_latent),
    dict(mode=PublishMode.FORENSICS_ONLY, forensics=ev, verdict=stable),
]
refused = 0
for case in cases:
    try:
        PublishAction(key=k, **case)
    except ValueError:
        refused += 1
print(refused, len(cases))
"""


def test_mode_truth_table():
    publisher = make_publisher(target=8)
    actions = run_stream(publisher, 16, unstable_at={12, 14})
    for i, action in enumerate(actions):
        if i < 8:
            assert action.mode is PublishMode.ACCUMULATING
            assert action.latent is None and action.verdict is None
        elif i in {12, 14}:
            assert action.mode is PublishMode.LATENT_PLUS_FORENSICS
            assert not action.verdict.stable
            assert action.forensics == tuple(events_for(i))
        else:
            assert action.mode is PublishMode.LATENT_ONLY
            assert action.verdict.stable
            assert action.forensics is None
    # every action the table forbids is refused, also without asserts (-O)
    src = str(Path(vaeguard.__file__).resolve().parents[1])
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", _INVALID_ACTIONS],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["13", "13"], flags


class _SealedBlock(EventBlock):
    """A block that fails if an event is built from it."""

    __slots__ = ()

    def __iter__(self):
        raise AssertionError("events built by iterating the group")

    def __getitem__(self, index):
        if isinstance(index, slice):
            return super().__getitem__(index)
        raise AssertionError("event built by indexing the group")


def sealed_events_for(i):
    block = as_block(events_for(i))
    return _SealedBlock(
        block.timestamps, block.container_codes, block.syscall_codes, block.tail_codes, block.tables
    )


def test_decisions_build_no_events_from_their_group():
    """Accumulating and stable decisions never look at the group; a drift
    action carries it as it is and both encoders read its columns."""
    publisher = make_publisher(target=8)
    groups = [sealed_events_for(i) for i in range(16)]
    actions = [
        publisher.process_interval(
            key(i), groups[i], vector(i, scale=5000.0 if i in (12, 14) else 1.0)
        )
        for i in range(16)
    ]
    assert [a.mode for a in actions[:8]] == [PublishMode.ACCUMULATING] * 8
    for i, action in enumerate(actions[8:], 8):
        if i not in (12, 14):
            assert action.mode is PublishMode.LATENT_ONLY
            continue
        assert action.mode is PublishMode.LATENT_PLUS_FORENSICS
        assert action.forensics is groups[i]
        plain = PublishAction(
            key=action.key,
            mode=action.mode,
            latent=action.latent,
            forensics=tuple(events_for(i)),
            verdict=action.verdict,
        )
        assert serialize_action(action) == serialize_action(plain)
        assert action_to_documents(action) == action_to_documents(plain)


def test_training_fires_exactly_once_at_target():
    fitted = []
    publisher = AdaptivePublisher(
        detector_factory=fit_recording_factory(
            fitted, accumulation_target=8, epochs=10, batch_size=4, seed=3
        )
    )
    for i in range(6):
        publisher.process_interval(key(i), events_for(i), vector(i))
        assert "box" not in publisher.models
    publisher.process_interval(key(6), events_for(6), vector(6))
    assert fitted == []
    publisher.process_interval(key(7), events_for(7), vector(7))
    assert fitted == [publisher.models["box"]]
    run_stream(publisher, 4)
    assert fitted == [publisher.models["box"]]


def test_training_frees_the_pending_vectors():
    publisher = make_publisher(target=8)
    vectors = [vector(i) for i in range(8)]
    refs = [weakref.ref(v) for v in vectors]
    for i, v in enumerate(vectors):
        publisher.process_interval(key(i), events_for(i), v)
    del vectors, v
    assert "box" in publisher.models
    # neither the pending list nor the cache holds a vector once trained
    assert [ref() for ref in refs] == [None] * 8


def test_training_target_is_the_trained_detectors_own():
    # the publisher's TrainConfig says 3, the detector the factory builds needs 4
    fitted = []
    publisher = AdaptivePublisher(
        train_config=TrainConfig(accumulation_target=3),
        detector_factory=fit_recording_factory(
            fitted, accumulation_target=4, epochs=2, batch_size=4
        ),
    )
    actions = run_stream(publisher, 4)
    assert [a.mode for a in actions] == [PublishMode.ACCUMULATING] * 4
    assert fitted == [publisher.models["box"]]
    scored = publisher.process_interval(key(4), events_for(4), vector(4))
    assert scored.mode is not PublishMode.ACCUMULATING


def test_a_failed_training_starts_accumulation_over():
    fitted = []

    def factory():
        detector = small_detector(accumulation_target=3, epochs=2, batch_size=4)
        fit = detector.fit

        def fit_or_fail_first(X):
            fitted.append(X)
            if len(fitted) == 1:
                raise RuntimeError("first training fails")
            return fit(X)

        detector.fit = fit_or_fail_first
        return detector

    publisher = AdaptivePublisher(detector_factory=factory)
    run_stream(publisher, 2)
    with pytest.raises(RuntimeError, match="first training fails"):
        publisher.process_interval(key(2), events_for(2), vector(2))
    assert "box" not in publisher.models
    actions = [publisher.process_interval(key(i), events_for(i), vector(i)) for i in range(3, 6)]
    assert [a.mode for a in actions] == [PublishMode.ACCUMULATING] * 3
    assert len(fitted) == 2 and "box" in publisher.models
    # the second detector trained on the intervals after the failure only
    np.testing.assert_array_equal(fitted[1], vectors_to_matrix([vector(i) for i in range(3, 6)]))


def test_trained_model_is_persisted(tmp_path):
    config = TrainConfig(epochs=5, batch_size=4, accumulation_target=4, seed=3)
    publisher = AdaptivePublisher(
        train_config=config,
        model_dir=tmp_path,
        detector_factory=lambda: small_detector(
            accumulation_target=4, epochs=5, batch_size=4
        ),
    )
    run_stream(publisher, 4)
    assert (tmp_path / "box.model.json").exists()


def test_model_files_stay_in_model_dir_one_per_container(tmp_path):
    model_dir = tmp_path / "models"
    publisher = AdaptivePublisher(
        model_dir=model_dir,
        detector_factory=lambda: small_detector(accumulation_target=4, epochs=5, batch_size=4),
    )
    # an absolute id would replace model_dir in a path join
    containers = ["web-0", "../escaped", str(tmp_path / "escaped"), "a/b", "a%2Fb", ".."]
    for container in containers:
        run_stream(publisher, 4, container=container)
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert {p.parent for p in files} == {model_dir}
    assert sorted(load_model(p).container_id for p in files) == sorted(containers)
    assert (model_dir / "web-0.model.json").exists()


def test_dropped_publisher_is_freed_without_the_cycle_collector():
    # Its cache holds slices that keep a whole trace block alive, so a
    # reference cycle would hold that block until some later collection.
    config = TrainConfig(epochs=2, batch_size=4, accumulation_target=4, seed=3)
    publisher = AdaptivePublisher(train_config=config)
    run_stream(publisher, 6)
    assert "box" in publisher.models
    dropped = weakref.ref(publisher)
    gc.disable()
    try:
        del publisher
        assert dropped() is None
    finally:
        gc.enable()


def test_containers_are_independent():
    publisher = make_publisher(target=4)
    run_stream(publisher, 4, container="a")
    assert "a" in publisher.models and "b" not in publisher.models
    actions = run_stream(publisher, 2, container="b")
    assert all(a.mode is PublishMode.ACCUMULATING for a in actions)


def test_action_serialization_round_trip():
    publisher = make_publisher(target=4)
    actions = run_stream(publisher, 8, unstable_at={6})
    for action in actions:
        line = serialize_action(action)
        assert line.endswith(b"\n")
        restored = parse_action(line)
        assert restored.key == action.key
        assert restored.mode is action.mode
        assert serialize_action(restored) == line
        if action.forensics is not None:
            assert restored.forensics == action.forensics


def test_serialization_is_deterministic():
    publisher = make_publisher(target=4)
    action = run_stream(publisher, 5)[-1]
    assert serialize_action(action) == serialize_action(action)


def test_documents_per_mode():
    from vaeguard.thresholds import HeuristicThreshold, assess
    from vaeguard.vae import LatentRecord

    stable_latent = LatentRecord(
        key=key(1), mu=np.arange(4.0), logvar=np.zeros(4), recon_error=0.5
    )
    drift_latent = LatentRecord(
        key=key(2), mu=np.arange(4.0), logvar=np.zeros(4), recon_error=2.0
    )
    policy = HeuristicThreshold(1.0)
    docs_acc = action_to_documents(
        PublishAction(key=key(0), mode=PublishMode.ACCUMULATING)
    )
    assert len(docs_acc) == 1 and docs_acc[0][:2] == ("stability-latent", "box/0/0")
    docs_latent = action_to_documents(
        PublishAction(
            key=key(1),
            mode=PublishMode.LATENT_ONLY,
            latent=stable_latent,
            verdict=assess(stable_latent, policy),
        )
    )
    assert len(docs_latent) == 1
    assert "mu" in docs_latent[0][2] and docs_latent[0][2]["stable"] is True
    full = PublishAction(
        key=key(2),
        mode=PublishMode.LATENT_PLUS_FORENSICS,
        latent=drift_latent,
        forensics=tuple(events_for(2)),
        verdict=assess(drift_latent, policy),
    )
    docs_full = action_to_documents(full, forensics_index="raw")
    assert len(docs_full) == 1 + len(full.forensics)
    assert {index for index, _, _ in docs_full[1:]} == {"raw"}
    assert [doc_id for _, doc_id, _ in docs_full] == [f"box/2/{i}" for i in range(4)]
    docs_standard = action_to_documents(
        PublishAction(
            key=key(3), mode=PublishMode.FORENSICS_ONLY, forensics=tuple(events_for(3))
        )
    )
    assert len(docs_standard) == 1 + len(events_for(3))


def test_forensic_record_is_json_dumps_of_the_event_rows():
    """Rows spliced from the columns give what json.dumps gives for the
    events' (timestamp, syscall, pid, result, arg_bytes) tuples, across
    pieces and for values the trace reader never yields."""
    rng = np.random.default_rng(4)
    events = [
        ForensicEvent(float(t), "box", str(sc), int(pid), int(ret), int(b))
        for t, sc, pid, ret, b in zip(
            np.sort(rng.uniform(0, 30, 10_000)),
            rng.choice(["openat", "close", "caf\u00e9", 'q"uote'], 10_000),
            rng.integers(0, 50, 10_000),
            rng.integers(-3, 3, 10_000),
            rng.integers(0, 2**62, 10_000),
        )
    ]
    events[5:9] = [
        ForensicEvent(float("nan"), "box", "openat", True, 0, 2**64 - 1),
        ForensicEvent(float("inf"), "box", "openat", "],[", -1, 0),
        ForensicEvent(1e-7, "box", "openat", None, 10**30, 1),
        ForensicEvent(0.1, "box", "\u2028", 0, 0, 0),
    ]
    for group in (events, events[:1], []):
        action = PublishAction(key=key(0), mode=PublishMode.FORENSICS_ONLY, forensics=group)
        doc = {"kind": "forensics", "container": "box", "interval": 0, "interval_len": 30.0,
               "events": [(e.timestamp, e.syscall, e.pid, e.result, e.arg_bytes) for e in group]}
        expected = json.dumps(doc, separators=(",", ":")) + "\n"
        assert serialize_action(action) == expected.encode("utf-8")


def test_forensics_record_much_larger_than_latent(small_trained_detector, small_baseline_summaries):
    k, group, vec = small_baseline_summaries[10]
    latent = small_trained_detector.score_vector(vec)
    from vaeguard.thresholds import assess

    verdict = assess(latent, small_trained_detector.threshold_policy_)
    latent_action = PublishAction(
        key=k, mode=PublishMode.LATENT_ONLY, latent=latent, verdict=verdict
    )
    raw_action = PublishAction(
        key=k, mode=PublishMode.FORENSICS_ONLY, forensics=tuple(group)
    )
    assert len(serialize_action(latent_action)) * 50 < len(serialize_action(raw_action))


# -- emit ------------------------------------------------------------------------


def test_emit_returns_exact_bytes(tmp_path):
    publisher = make_publisher(target=4)
    actions = run_stream(publisher, 6)
    sink = FileSink(tmp_path / "out.ndjson")
    receipts = [emit(action, sink) for action in actions]
    sink.close()
    assert sum(receipts) == (tmp_path / "out.ndjson").stat().st_size
    assert sum(receipts) == sink.bytes_written
    for action, receipt in zip(actions, receipts):
        assert receipt == len(serialize_action(action))


def test_emit_to_closed_sink_raises(tmp_path):
    publisher = make_publisher(target=4)
    action = run_stream(publisher, 1)[0]
    sink = FileSink(tmp_path / "out.ndjson")
    sink.close()
    with pytest.raises(SinkUnavailable):
        emit(action, sink)
    assert (tmp_path / "out.ndjson").read_bytes() == b""


class _RecordingSink:
    def __init__(self):
        self.calls = []

    def publish(self, action, latent_index, forensics_index):
        self.calls.append((action, latent_index, forensics_index))
        return 17


@pytest.mark.parametrize(
    "indices, expected",
    [((), (DEFAULT_LATENT_INDEX, DEFAULT_FORENSICS_INDEX)), (("lat", "raw"), ("lat", "raw"))],
    ids=["default", "named"],
)
def test_emit_is_one_publish_call_with_its_index_names(indices, expected):
    action = PublishAction(key=key(0), mode=PublishMode.ACCUMULATING)
    sink = _RecordingSink()
    assert emit(action, sink, *indices) == 17
    assert sink.calls == [(action, *expected)]


@pytest.mark.parametrize(
    "corrupt",
    [lambda payload: payload[: len(payload) // 2], lambda payload: b"[" * 100_000],
    ids=["truncated", "deeply-nested"],
)
def test_parse_action_rejects_a_cut_or_garbled_record(corrupt):
    """A record a sink left cut, or one nested past the parser's depth,
    raises rather than reading back as some other action."""
    publisher = make_publisher(target=4)
    action = run_stream(publisher, 3)[1]
    with pytest.raises((ValueError, RecursionError)):
        parse_action(corrupt(serialize_action(action)))
