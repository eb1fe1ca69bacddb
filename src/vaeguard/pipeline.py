"""End-to-end runs over a trace: assess, and standard-vs-adaptive cost bench.

`assess_trace` scores `summarize.interval_stream`'s rows as they come.
`bench` drives `_run_mode` once per publisher, standard then adaptive,
over the same rows, grouped per container by `summarize_trace`, so any
difference in published bytes is attributable purely to publishing
policy. Wall-clock time and this process's CPU time cover the same
span: the per-interval decision and publish path up to the flush of
the sink, not trace parsing. The two runs are sequential to keep their
timers independent.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
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
    interval_stream,
)
from vaeguard.thresholds import DEFAULT_K, check_k
from vaeguard.vae import TrainConfig, VaeStabilityDetector

logger = logging.getLogger(__name__)

Row = tuple[IntervalKey, EventBlock, ActivityVector]
Summaries = list[Row]


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
    """The rows of `interval_stream` per container, in order of first
    appearance. The events, time-ordered across containers, may be an
    `EventBlock` or any iterable, which is read once into one."""
    summaries: dict[str, Summaries] = {}
    for row in interval_stream(events, interval_len):
        summaries.setdefault(row[0].container_id, []).append(row)
    return summaries


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
        return json.dumps(asdict(self), separators=(",", ":"))


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


def assess_trace(
    rows: Iterable[Row],
    detector: VaeStabilityDetector,
    config: PipelineConfig,
) -> list[IntervalVerdictRecord]:
    """Score every row with one trained model, under that model's
    threshold policy, installing it at each container's first row."""
    publisher = AdaptivePublisher(cache_capacity=config.cache_capacity)
    records = []
    for key, events, vector in rows:
        if key.container_id not in publisher.models:
            publisher.install_model(key.container_id, detector)
        records.append(record_for_action(publisher.process_interval(key, events, vector)))
    return records


# -- bench ------------------------------------------------------------------


@dataclass
class ModeCost:
    intervals: int = 0
    events: int = 0
    bytes_published: int = 0
    wall_seconds: float = 0.0
    # time.process_time() over the span wall_seconds covers: this process's
    # CPU, so a sink's remote work is not in it
    cpu_seconds: float = 0.0
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

    @property
    def cpu_ratio(self) -> float | None:
        """adaptive CPU seconds / standard CPU seconds; None when undefined."""
        if self.standard.cpu_seconds == 0:
            return None
        return self.adaptive.cpu_seconds / self.standard.cpu_seconds

    def to_json(self) -> str:
        doc = {
            "standard": vars(self.standard),
            "adaptive": vars(self.adaptive),
            "bytes_ratio": self.bytes_ratio,
            "reduction_factor": self.reduction_factor,
            "cpu_ratio": self.cpu_ratio,
        }
        return json.dumps(doc, separators=(",", ":"))

    def format_table(self) -> str:
        rows = [
            ("intervals", self.standard.intervals, self.adaptive.intervals),
            ("events", self.standard.events, self.adaptive.events),
            ("bytes published", self.standard.bytes_published, self.adaptive.bytes_published),
            ("wall seconds", f"{self.standard.wall_seconds:.3f}", f"{self.adaptive.wall_seconds:.3f}"),
            ("cpu seconds", f"{self.standard.cpu_seconds:.3f}", f"{self.adaptive.cpu_seconds:.3f}"),
            ("unstable intervals", "-", self.adaptive.unstable_intervals),
        ]
        lines = [f"{'metric':<20} {'standard':>14} {'adaptive':>14}"]
        for name, std, ada in rows:
            lines.append(f"{name:<20} {std!s:>14} {ada!s:>14}")
        if self.bytes_ratio is not None:
            lines.append(f"adaptive/standard bytes: {self.bytes_ratio:.6f}")
        if self.reduction_factor is not None:
            lines.append(f"reduction factor: {self.reduction_factor:.1f}x")
        if self.cpu_ratio is not None:
            lines.append(f"adaptive/standard cpu: {self.cpu_ratio:.6f}")
        return "\n".join(lines)


def _run_mode(
    summaries: dict[str, Summaries],
    publisher: StandardPublisher | AdaptivePublisher,
    sink: Sink,
    config: PipelineConfig,
) -> ModeCost:
    """Drive `publisher` over every interval row into `sink`, and count."""
    cost = ModeCost()
    started = time.perf_counter()
    cpu_started = time.process_time()
    for rows in summaries.values():
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
    sink.flush()  # the clocks and the byte count cover every request the run sends
    cost.cpu_seconds = time.process_time() - cpu_started
    cost.wall_seconds = time.perf_counter() - started
    return cost


def bench(
    summaries: dict[str, Summaries],
    detector: VaeStabilityDetector,
    config: PipelineConfig,
    standard_sink: Sink,
    adaptive_sink: Sink,
) -> CostReport:
    """Run both publishers over the same interval stream, sequentially."""
    standard = StandardPublisher(config.cache_capacity)
    standard_cost = _run_mode(summaries, standard, standard_sink, config)
    adaptive = AdaptivePublisher(cache_capacity=config.cache_capacity)
    for container in summaries:
        adaptive.install_model(container, detector)
    adaptive_cost = _run_mode(summaries, adaptive, adaptive_sink, config)
    report = CostReport(standard=standard_cost, adaptive=adaptive_cost)
    logger.info(
        "bench: standard %d bytes, adaptive %d bytes",
        standard_cost.bytes_published,
        adaptive_cost.bytes_published,
    )
    return report
