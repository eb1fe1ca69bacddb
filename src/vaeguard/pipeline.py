"""End-to-end runs over a trace: assess, and standard-vs-adaptive cost bench.

Both bench pipelines consume the same summarized interval stream, so any
difference in published bytes is attributable purely to publishing
policy. Wall-clock time covers the per-interval decision and publish
path, not trace parsing, and the two pipelines run sequentially to keep
their timers independent.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import Iterable

from vaeguard.errors import InvalidConfig
from vaeguard.events import EventBlock, ForensicEvent
from vaeguard.publisher import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_FORENSICS_INDEX,
    DEFAULT_LATENT_INDEX,
    AdaptivePublisher,
    PublishAction,
    StandardPublisher,
    emit,
)
from vaeguard.sinks import DEFAULT_BULK_BATCH_SIZE, Sink
from vaeguard.summarize import (
    DEFAULT_INTERVAL_LEN,
    ActivityVector,
    IntervalKey,
    check_interval_len,
    split_by_container,
    summarize_stream,
)
from vaeguard.thresholds import DEFAULT_K, check_k
from vaeguard.vae import TrainConfig, VaeStabilityDetector

logger = logging.getLogger(__name__)

Summaries = list[tuple[IntervalKey, EventBlock, ActivityVector]]


@dataclass(frozen=True)
class PipelineConfig:
    interval_len: float = DEFAULT_INTERVAL_LEN
    train: TrainConfig = field(default_factory=TrainConfig)
    threshold_k: float = DEFAULT_K
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    latent_index: str = DEFAULT_LATENT_INDEX
    forensics_index: str = DEFAULT_FORENSICS_INDEX
    bulk_batch_size: int = DEFAULT_BULK_BATCH_SIZE

    def __post_init__(self):
        check_interval_len(self.interval_len)
        check_k(self.threshold_k)
        if self.cache_capacity < 1:
            raise InvalidConfig("cache_capacity must be >= 1")
        if self.bulk_batch_size < 1:
            raise InvalidConfig("bulk_batch_size must be >= 1")

    def detector(self) -> VaeStabilityDetector:
        """An unfitted detector of the default architecture."""
        return VaeStabilityDetector(self.train, threshold_k=self.threshold_k)


def summarize_trace(
    events: Iterable[ForensicEvent], interval_len: float = DEFAULT_INTERVAL_LEN
) -> dict[str, Summaries]:
    """Window and summarize per container, in order of first appearance.

    A plain event list is turned into an `EventBlock` first; each row's
    events are a slice of it.
    """
    check_interval_len(interval_len)
    streams = split_by_container(events)
    return {
        container: list(summarize_stream(stream, interval_len))
        for container, stream in streams.items()
    }


# -- assess -----------------------------------------------------------------


@dataclass(frozen=True)
class IntervalVerdictRecord:
    """One machine-readable assessment row per interval."""

    container: str
    interval: int
    start: float
    recon_error: float | None
    threshold: float | None
    stable: bool | None
    mode: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "container": self.container,
                "interval": self.interval,
                "start": self.start,
                "recon_error": self.recon_error,
                "threshold": self.threshold,
                "stable": self.stable,
                "mode": self.mode,
            },
            separators=(",", ":"),
        )


def record_for_action(action: PublishAction) -> IntervalVerdictRecord:
    latent = action.latent
    verdict = action.verdict
    return IntervalVerdictRecord(
        container=action.key.container_id,
        interval=action.key.interval_index,
        start=action.key.start,
        recon_error=None if latent is None else latent.recon_error,
        threshold=None if verdict is None else verdict.threshold,
        stable=None if verdict is None else verdict.stable,
        mode=action.mode.value,
    )


def _adaptive_publisher(
    summaries: dict[str, Summaries],
    detector: VaeStabilityDetector,
    config: PipelineConfig,
) -> AdaptivePublisher:
    """An adaptive publisher with `detector` installed for every container."""
    publisher = AdaptivePublisher(cache_capacity=config.cache_capacity)
    for container in summaries:
        publisher.install_model(container, detector)
    return publisher


def assess_trace(
    summaries: dict[str, Summaries],
    detector: VaeStabilityDetector,
    config: PipelineConfig,
) -> list[IntervalVerdictRecord]:
    """Score every interval of every container with one trained model,
    under that model's threshold policy."""
    publisher = _adaptive_publisher(summaries, detector, config)
    return [
        record_for_action(publisher.process_interval(key, events, vector))
        for rows in summaries.values()
        for key, events, vector in rows
    ]


# -- bench ------------------------------------------------------------------


@dataclass
class ModeCost:
    intervals: int = 0
    events: int = 0
    bytes_published: int = 0
    wall_seconds: float = 0.0
    unstable_intervals: int = 0
    stable_intervals: int = 0


@dataclass
class CostReport:
    standard: ModeCost
    adaptive: ModeCost

    @property
    def bytes_ratio(self) -> float | None:
        """adaptive bytes / standard bytes; None when undefined."""
        if self.standard.bytes_published == 0:
            return None
        return self.adaptive.bytes_published / self.standard.bytes_published

    @property
    def reduction_factor(self) -> float | None:
        if self.adaptive.bytes_published == 0:
            return None
        return self.standard.bytes_published / self.adaptive.bytes_published

    def to_json(self) -> str:
        doc = {
            "standard": vars(self.standard),
            "adaptive": vars(self.adaptive),
            "bytes_ratio": self.bytes_ratio,
            "reduction_factor": self.reduction_factor,
        }
        return json.dumps(doc, separators=(",", ":"))

    def format_table(self) -> str:
        rows = [
            ("intervals", self.standard.intervals, self.adaptive.intervals),
            ("events", self.standard.events, self.adaptive.events),
            ("bytes published", self.standard.bytes_published, self.adaptive.bytes_published),
            ("wall seconds", f"{self.standard.wall_seconds:.3f}", f"{self.adaptive.wall_seconds:.3f}"),
            ("unstable intervals", "-", self.adaptive.unstable_intervals),
        ]
        lines = [f"{'metric':<20} {'standard':>14} {'adaptive':>14}"]
        for name, std, ada in rows:
            lines.append(f"{name:<20} {std!s:>14} {ada!s:>14}")
        if self.bytes_ratio is not None:
            lines.append(f"adaptive/standard bytes: {self.bytes_ratio:.6f}")
        if self.reduction_factor is not None:
            lines.append(f"reduction factor: {self.reduction_factor:.1f}x")
        return "\n".join(lines)


def _run_mode(
    summaries: dict[str, Summaries],
    publisher,
    sink: Sink,
    config: PipelineConfig,
) -> tuple[ModeCost, list[PublishAction]]:
    cost = ModeCost()
    actions: list[PublishAction] = []
    started = time.perf_counter()
    for container, rows in summaries.items():
        for key, events, vector in rows:
            action = publisher.process_interval(key, events, vector)
            cost.bytes_published += emit(
                action,
                sink,
                latent_index=config.latent_index,
                forensics_index=config.forensics_index,
            )
            cost.intervals += 1
            cost.events += len(events)
            if action.verdict is not None:
                if action.verdict.stable:
                    cost.stable_intervals += 1
                else:
                    cost.unstable_intervals += 1
            actions.append(action)
    cost.wall_seconds = time.perf_counter() - started
    return cost, actions


def run_standard(
    summaries: dict[str, Summaries],
    sink: Sink,
    config: PipelineConfig,
) -> tuple[ModeCost, list[PublishAction]]:
    return _run_mode(summaries, StandardPublisher(config.cache_capacity), sink, config)


def run_adaptive(
    summaries: dict[str, Summaries],
    detector: VaeStabilityDetector,
    sink: Sink,
    config: PipelineConfig,
) -> tuple[ModeCost, list[PublishAction]]:
    publisher = _adaptive_publisher(summaries, detector, config)
    return _run_mode(summaries, publisher, sink, config)


def bench(
    summaries: dict[str, Summaries],
    detector: VaeStabilityDetector,
    config: PipelineConfig,
    standard_sink: Sink,
    adaptive_sink: Sink,
) -> CostReport:
    """Run both publishers over the same interval stream, sequentially."""
    standard_cost, _ = run_standard(summaries, standard_sink, config)
    adaptive_cost, _ = run_adaptive(summaries, detector, adaptive_sink, config)
    report = CostReport(standard=standard_cost, adaptive=adaptive_cost)
    logger.info(
        "bench: standard %d bytes, adaptive %d bytes",
        standard_cost.bytes_published,
        adaptive_cost.bytes_published,
    )
    return report
