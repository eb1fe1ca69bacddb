"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps the public functions of each vaeguard layer that
run once per trace, per interval or per training step. Nothing that runs
once per event is wrapped (`parse_event_record` runs 190k times per
pass on `hijack`); per-event costs are derived from the `events.read_trace_file`
span instead. A function that cannot be found is reported missing and
its metrics read 0, so a refactor of the program does not crash the
benchmark.

Spans live in memory as [name, start, end, parent, interval, pass,
raised] and are written out when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _count_events(tracer, args, result):
    tracer.add("events.count", len(result))


def _count_empty(tracer, args, result):
    tracer.add("summarize.empty_intervals", 0 if len(args[1]) else 1)


def _count_drift(tracer, args, result):
    tracer.add("thresholds.drift_verdicts", 0 if result.stable else 1)


def _count_action(tracer, args, result):
    tracer.add(f"publisher.actions.{result.mode.value}", 1)
    if result.forensics is not None:
        tracer.add("publisher.forensic_events", len(result.forensics))


def _count_bytes(tracer, args, result):
    tracer.add("sinks.bytes", result)


# (span name, module, attribute path, observer of the result)
TARGETS = (
    ("events.read_trace_file", "vaeguard.events", "read_trace_file", _count_events),
    ("pipeline.summarize_trace", "vaeguard.pipeline", "summarize_trace", None),
    ("summarize.split_by_container", "vaeguard.summarize", "split_by_container", None),
    ("summarize.summarize_interval", "vaeguard.summarize", "summarize_interval", _count_empty),
    ("scaling.transform", "vaeguard.scaling", "ActivityScaler.transform", None),
    ("scaling.transform_vector", "vaeguard.scaling", "ActivityScaler.transform_vector", None),
    ("nn.encode", "vaeguard.nn", "encode", None),
    ("nn.decode", "vaeguard.nn", "decode", None),
    ("nn.elbo_gradients", "vaeguard.nn", "elbo_gradients", None),
    ("nn.adam_step", "vaeguard.nn", "adam_step", None),
    ("vae.load_model", "vaeguard.vae", "load_model", None),
    ("vae.fit", "vaeguard.vae", "VaeStabilityDetector.fit", None),
    ("vae.score_vector", "vaeguard.vae", "VaeStabilityDetector.score_vector", None),
    ("thresholds.assess", "vaeguard.thresholds", "assess", _count_drift),
    ("publisher.process_interval", "vaeguard.publisher", "AdaptivePublisher.process_interval", _count_action),
    ("publisher.cache_push", "vaeguard.publisher", "IntervalCache.push", None),
    ("publisher.serialize_action", "vaeguard.publisher", "serialize_action", None),
    ("publisher.action_to_documents", "vaeguard.publisher", "action_to_documents", None),
    ("publisher.emit", "vaeguard.publisher", "emit", None),
    ("sinks.file_publish", "vaeguard.sinks", "FileSink.publish", _count_bytes),
    ("sinks.http_publish", "vaeguard.sinks", "HttpBulkSink.publish", _count_bytes),
    ("sinks.encode_bulk_request", "vaeguard.sinks", "encode_bulk_request", None),
    ("sinks.post", "urllib.request", "urlopen", None),
)


def _interval_of(args) -> str | None:
    """`container/index` of the first argument that is or carries an IntervalKey."""
    for arg in args[:3]:
        key = getattr(arg, "key", arg)
        if hasattr(key, "interval_index") and hasattr(key, "container_id"):
            return f"{key.container_id}/{key.interval_index}"
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_no = -1  # -1 is set-up, before the first pass
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[self.pass_no][counter] += amount

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            interval = _interval_of(args)
            if interval is None and parent is not None:
                interval = tracer.spans[parent][4]
            span = [name, 0.0, 0.0, parent, interval, tracer.pass_no, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, path, observe in TARGETS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, observe)
            self._patch(owner, attr, wrapper)
            if owner_path:
                continue
            # Modules that imported the function by name hold their own reference.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("vaeguard"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value, present = self._restore.pop()
            if present:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "interval", "pass", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span)), separators=(",", ":")) + "\n")

    def aggregates(self, pass_no: int) -> "Aggregates":
        cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                cover[span[3]] += span[2] - span[1]
        agg = Aggregates(self.counters[pass_no])
        for index, span in enumerate(self.spans):
            if span[5] != pass_no:
                continue
            duration = span[2] - span[1]
            name = span[0]
            agg.total[name] += duration
            agg.self_time[name] += duration - cover[index]
            agg.calls[name] += 1
            agg.raised[name] += span[6]
            agg.durations[name].append(duration)
        return agg


class Aggregates:
    def __init__(self, counters):
        self.counters = counters
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.durations = defaultdict(list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_PUBLISH = ("sinks.file_publish", "sinks.http_publish")
_ENCODE = ("publisher.serialize_action", "publisher.action_to_documents")

# (metric, unit, better, spans it is computed from, value from a pass's aggregates)
PER_LAYER = (
    ("events.read_s", "s", "lower", ("events.read_trace_file",),
     lambda a: a.total["events.read_trace_file"]),
    ("events.us_per_event", "us/event", "lower", ("events.read_trace_file",),
     lambda a: 1e6 * _ratio(a.total["events.read_trace_file"], a.counters["events.count"])),
    ("events.count", "count", "higher", ("events.read_trace_file",),
     lambda a: a.counters["events.count"]),
    ("summarize.split_s", "s", "lower", ("summarize.split_by_container",),
     lambda a: a.total["summarize.split_by_container"]),
    ("summarize.vectorize_s", "s", "lower", ("summarize.summarize_interval",),
     lambda a: a.total["summarize.summarize_interval"]),
    ("summarize.window_self_s", "s", "lower",
     ("pipeline.summarize_trace", "summarize.split_by_container", "summarize.summarize_interval"),
     lambda a: a.self_time["pipeline.summarize_trace"]),
    ("summarize.us_per_event", "us/event", "lower",
     ("pipeline.summarize_trace", "events.read_trace_file"),
     lambda a: 1e6 * _ratio(a.total["pipeline.summarize_trace"], a.counters["events.count"])),
    ("summarize.intervals", "count", "higher", ("summarize.summarize_interval",),
     lambda a: a.calls["summarize.summarize_interval"]),
    ("summarize.empty_intervals", "count", "lower", ("summarize.summarize_interval",),
     lambda a: a.counters["summarize.empty_intervals"]),
    ("scaling.transform_s", "s", "lower", ("scaling.transform", "scaling.transform_vector"),
     lambda a: a.total["scaling.transform"] + a.total["scaling.transform_vector"]),
    ("nn.encode_s", "s", "lower", ("nn.encode",), lambda a: a.total["nn.encode"]),
    ("nn.decode_s", "s", "lower", ("nn.decode",), lambda a: a.total["nn.decode"]),
    ("nn.elbo_gradients_s", "s", "lower", ("nn.elbo_gradients",),
     lambda a: a.total["nn.elbo_gradients"]),
    ("nn.adam_step_s", "s", "lower", ("nn.adam_step",), lambda a: a.total["nn.adam_step"]),
    ("nn.train_steps", "count", "lower", ("nn.adam_step",), lambda a: a.calls["nn.adam_step"]),
    ("vae.fit_s", "s", "lower", ("vae.fit",), lambda a: a.total["vae.fit"]),
    ("vae.fit_self_s", "s", "lower", ("vae.fit", "nn.elbo_gradients", "nn.adam_step"),
     lambda a: a.self_time["vae.fit"]),
    ("vae.score_vector_s", "s", "lower", ("vae.score_vector",),
     lambda a: a.total["vae.score_vector"]),
    ("vae.score_vector_self_s", "s", "lower",
     ("vae.score_vector", "nn.encode", "nn.decode", "scaling.transform_vector"),
     lambda a: a.self_time["vae.score_vector"]),
    ("vae.scores", "count", "higher", ("vae.score_vector",),
     lambda a: a.calls["vae.score_vector"]),
    ("thresholds.assess_s", "s", "lower", ("thresholds.assess",),
     lambda a: a.total["thresholds.assess"]),
    ("thresholds.drift_verdicts", "count", "lower", ("thresholds.assess",),
     lambda a: a.counters["thresholds.drift_verdicts"]),
    ("publisher.process_interval_s", "s", "lower", ("publisher.process_interval",),
     lambda a: a.total["publisher.process_interval"]),
    ("publisher.process_interval_self_s", "s", "lower",
     ("publisher.process_interval", "publisher.cache_push", "vae.score_vector",
      "thresholds.assess", "vae.fit"),
     lambda a: a.self_time["publisher.process_interval"]),
    ("publisher.cache_push_s", "s", "lower", ("publisher.cache_push",),
     lambda a: a.total["publisher.cache_push"]),
    ("publisher.serialize_s", "s", "lower", ("publisher.serialize_action",),
     lambda a: a.total["publisher.serialize_action"]),
    ("publisher.documents_s", "s", "lower", ("publisher.action_to_documents",),
     lambda a: a.total["publisher.action_to_documents"]),
    ("publisher.emit_s", "s", "lower", ("publisher.emit",), lambda a: a.total["publisher.emit"]),
    ("publisher.emit_self_s", "s", "lower", ("publisher.emit",) + _ENCODE + _PUBLISH,
     lambda a: a.self_time["publisher.emit"]),
    ("publisher.actions.accumulating", "count", "lower", ("publisher.process_interval",),
     lambda a: a.counters["publisher.actions.accumulating"]),
    ("publisher.actions.latent", "count", "higher", ("publisher.process_interval",),
     lambda a: a.counters["publisher.actions.latent"]),
    ("publisher.actions.latent_forensics", "count", "lower", ("publisher.process_interval",),
     lambda a: a.counters["publisher.actions.latent_forensics"]),
    ("publisher.forensic_events", "count", "lower", ("publisher.process_interval",),
     lambda a: a.counters["publisher.forensic_events"]),
    # Sink representations shipped over those built: each publish ships one
    # of the two that emit builds (the ndjson line or the bulk documents).
    ("publisher.encode_useful_ratio", "ratio", "higher", _ENCODE + _PUBLISH,
     lambda a: _ratio(sum(a.calls[n] for n in _PUBLISH), sum(a.calls[n] for n in _ENCODE))),
    ("sinks.publish_s", "s", "lower", _PUBLISH, lambda a: sum(a.total[n] for n in _PUBLISH)),
    ("sinks.publish_self_s", "s", "lower", _PUBLISH + ("sinks.encode_bulk_request", "sinks.post"),
     lambda a: sum(a.self_time[n] for n in _PUBLISH)),
    ("sinks.bulk_encode_s", "s", "lower", ("sinks.encode_bulk_request",),
     lambda a: a.total["sinks.encode_bulk_request"]),
    ("sinks.bytes", "bytes", "lower", _PUBLISH, lambda a: a.counters["sinks.bytes"]),
    # One request is one POST on the HTTP sink and one append on the file sink.
    ("sinks.requests", "count", "lower", ("sinks.post", "sinks.file_publish"),
     lambda a: a.calls["sinks.post"] + a.calls["sinks.file_publish"]),
    ("sinks.post_ms_p50", "ms", "lower", ("sinks.post",),
     lambda a: 1e3 * statistics.median(a.durations["sinks.post"]) if a.durations["sinks.post"] else 0.0),
    ("sinks.failures", "count", "lower", _PUBLISH, lambda a: sum(a.raised[n] for n in _PUBLISH)),
    ("pipeline.summarize_trace_s", "s", "lower", ("pipeline.summarize_trace",),
     lambda a: a.total["pipeline.summarize_trace"]),
)

# Set-up metrics come from the spans recorded before the first pass.
SETUP_LAYER = (
    ("vae.load_model_s", "s", "lower", ("vae.load_model",), lambda a: a.total["vae.load_model"]),
)

# Computed by the parent from one untraced and one traced run process.
OVERHEAD = ("trace.overhead", "ratio", "lower")


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, float], list[str]]:
    """Median over passes of each per-layer metric, and the metrics missing."""
    missing_spans = set(tracer.missing)
    values: dict[str, float] = {}
    missing: list[str] = []
    per_pass = [tracer.aggregates(p) for p in range(passes)]
    setup = [tracer.aggregates(-1)]
    for table, aggs in ((PER_LAYER, per_pass), (SETUP_LAYER, setup)):
        for name, _unit, _better, spans, value in table:
            if missing_spans.intersection(spans):
                missing.append(name)
                values[name] = 0.0
            else:
                values[name] = float(statistics.median(value(a) for a in aggs))
    return values, missing
