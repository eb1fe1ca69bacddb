"""The run process: set up, replay one trace through the library, check.

    python3 perfbench/worker.py CONFIG.json SPAWNED

The parent starts a fresh interpreter for every run and passes
`SPAWNED`, its `time.monotonic()` just before the spawn (a system-wide
clock on Linux), so set-up time covers interpreter start, imports,
`load_model` and opening the sink.

One pass is the path `pipeline.run_adaptive` takes, with a clock around
each step: `events.read_trace_file` -> `pipeline.summarize_trace` ->
`AdaptivePublisher.process_interval` -> `publisher.emit` -> sink. A
speed reading (see `speed.py`) is taken before, between and after the
steps, outside every timed step; the run's times are reported at the reference speed, using the
median of its readings. Passes
repeat while a typical one still ends within the run's seconds (at least
one runs); every pass starts from a fresh publisher, so online training
happens in each. When fewer passes than the wanted decision samples fit,
the publish step alone is replayed over the last pass's intervals.
Checks, the standard publisher's byte count and all bookkeeping happen
after that.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
from inputs import file_sha256

SCALED_TIMES = ("first_publish_s", "decision_ms_p50", "decision_ms_tail", "train_s_per_container")


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def machine_facts() -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    def __init__(self, config: dict):
        self.config = config
        self.inputs = config["inputs"]
        self.workdir = Path(config["workdir"])

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        from vaeguard import events, pipeline, publisher, sinks, vae
        from vaeguard.errors import VaeguardError

        self.events_mod, self.pipeline_mod, self.publisher_mod = events, pipeline, publisher
        self.sinks_mod, self.VaeguardError = sinks, VaeguardError
        self.pc = pipeline.PipelineConfig(train=vae.TrainConfig(**self.inputs["train"]))
        bundle = self.inputs["bundle"]
        self.detector = vae.load_model(bundle) if bundle else None
        self.sink, self.output = self.open_sink(0)

    def open_sink(self, pass_no: int):
        if self.config["sink"] == "file":
            path = self.workdir / f"adaptive-p{pass_no}.ndjson"
            return self.sinks_mod.FileSink(path), path
        sink = self.sinks_mod.HttpBulkSink(
            f"{self.config['endpoint']}/p{pass_no}", batch_size=self.pc.bulk_batch_size
        )
        return sink, self.workdir / f"received-p{pass_no}.bulk"

    # -- one measured pass -------------------------------------------------

    def publish(self, summaries, sink) -> dict:
        """process_interval then emit for every interval, as run_adaptive does."""
        pc, publisher_mod = self.pc, self.publisher_mod
        decisions: list = []
        errors: list[str] = []
        first = last = None
        sent = 0
        publisher = publisher_mod.AdaptivePublisher(
            train_config=pc.train, threshold_k=pc.threshold_k, cache_capacity=pc.cache_capacity
        )
        if self.detector is not None:
            for container in summaries:
                publisher.install_model(container, self.detector)
        began = time.perf_counter()
        for rows in summaries.values():
            for key, group, vector in rows:
                had_model = key.container_id in publisher.models
                t0 = time.perf_counter()
                try:
                    action = publisher.process_interval(key, group, vector)
                    t1 = time.perf_counter()
                    sent += publisher_mod.emit(
                        action, sink,
                        latent_index=pc.latent_index, forensics_index=pc.forensics_index,
                    )
                except self.VaeguardError as exc:
                    decisions.append(None)
                    errors.append(f"{key.container_id}/{key.interval_index}: {exc}")
                    continue
                last = time.perf_counter()
                if first is None:
                    first = last
                trained = not had_model and key.container_id in publisher.models
                decisions.append((t1 - t0, last - t1, trained))
        sink.close()
        return {
            "first_s": first - began if first is not None else 0.0,
            "wall_s": last - began if last is not None else 0.0,
            "decisions": decisions,
            "errors": errors,
            "sink_bytes": sent,
            "sink_reported": getattr(sink, "bytes_written", sent),
            "summaries": summaries,
            "publisher": publisher,
        }

    def run_pass(self, sink) -> dict:
        """One pass, with speed readings before, between and after its steps.

        The pass's time runs from opening the trace to the last action the
        sink accepted, without the readings. None is taken inside the
        publish loop: there, a reading would follow the loopback
        endpoint's work on the same CPU and time its cache misses."""
        clock = self.clock
        clock.read()
        t0 = time.perf_counter()
        events = self.events_mod.read_trace_file(self.inputs["trace"])
        t1 = time.perf_counter()
        clock.read()
        t2 = time.perf_counter()
        summaries = self.pipeline_mod.summarize_trace(events, self.pc.interval_len)
        t3 = time.perf_counter()
        clock.read()
        result = self.publish(summaries, sink)
        clock.read()
        ingest_s = (t1 - t0) + (t3 - t2)
        wall = ingest_s + result["wall_s"]
        result.update(
            events=len(events),
            wall_s=wall,
            events_per_s=len(events) / wall,
            first_publish_s=ingest_s + result["first_s"],
        )
        return result

    # -- after the last pass ------------------------------------------------

    def check(self, last: dict, publishes: list[dict], outputs: list[Path]) -> tuple[list[set], list[str]]:
        """Failed interval positions of each publish, and the reasons.

        `last` is the pass whose interval stream and models are kept."""
        import checks

        rows = [row for rows in last["summaries"].values() for row in rows]
        expected = checks.expected_outputs(
            rows, last["publisher"].models, self.detector is not None,
            self.pc.train.accumulation_target,
        )
        if self.config.get("corrupt_record") is not None:
            checks.corrupt_one_record(outputs[0], self.config["corrupt_record"])
        pc = self.pc
        verdicts: dict[str, dict[int, str]] = {}
        failed_per_publish: list[set] = []
        reasons: list[str] = []
        for result, output in zip(publishes, outputs):
            failed = {i for i, d in enumerate(result["decisions"]) if d is None}
            reasons += result["errors"]
            size = output.stat().st_size if output.exists() else 0
            if not (result["sink_bytes"] == result["sink_reported"] == size):
                failed = set(range(len(rows)))
                reasons.append(
                    f"sink returned {result['sink_bytes']} bytes, reports"
                    f" {result['sink_reported']}, output holds {size}"
                )
            digest = file_sha256(output) if output.exists() else ""
            if digest not in verdicts:
                if self.config["sink"] == "file":
                    records = checks.read_file_records(output)
                else:
                    records = checks.read_bulk_records(output, pc.latent_index, pc.forensics_index)
                verdicts[digest] = checks.check_records(records, rows, expected)
                reasons += verdicts[digest].values()
            failed |= set(verdicts[digest])
            failed_per_publish.append(failed)
        return failed_per_publish, reasons

    def standard_bytes(self, summaries) -> int:
        """Bytes of the conventional publisher over the same interval stream,
        through the same kind of sink."""
        pc, publisher_mod = self.pc, self.publisher_mod
        if self.config["sink"] == "file":
            output = self.workdir / "standard.ndjson"
            sink = self.sinks_mod.FileSink(output)
        else:
            output = self.workdir / "received-std.bulk"
            sink = self.sinks_mod.HttpBulkSink(
                f"{self.config['endpoint']}/std", batch_size=pc.bulk_batch_size
            )
        standard = publisher_mod.StandardPublisher(pc.cache_capacity)
        total = 0
        for rows in summaries.values():
            for key, group, vector in rows:
                total += publisher_mod.emit(
                    standard.process_interval(key, group, vector), sink,
                    latent_index=pc.latent_index, forensics_index=pc.forensics_index,
                )
        sink.close()
        output.unlink(missing_ok=True)
        return total


def decision_metrics(publishes: list[dict], failed_per_publish: list[set], tail: float) -> dict:
    """Per-interval medians over passes and replays, then their median and tail."""
    n = len(publishes[0]["decisions"])
    decision, training = [], {}
    for position in range(n):
        samples, trains = [], []
        for result, failed in zip(publishes, failed_per_publish):
            d = result["decisions"][position]
            if d is None or position in failed:
                continue
            if d[2]:
                trains.append(d[0])
            else:
                samples.append(d[0] + d[1])
        if trains:
            training[position] = statistics.median(trains)
        elif samples:
            decision.append(statistics.median(samples))
    return {
        "decision_ms_p50": 1e3 * statistics.median(decision) if decision else None,
        "decision_ms_tail": 1e3 * _percentile(decision, tail) if decision else None,
        "decision_samples": len(decision),
        "tail_percentile": tail,
        "train_s_per_container": statistics.mean(training.values()) if training else None,
        "trainings": len(training),
    }


def main(argv: list[str]) -> int:
    config_path, spawned = argv
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tracer = None
    if config["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = Run(config)
    run.setup()
    setup_s = time.monotonic() - float(spawned)
    result: dict = {"setup_s": setup_s}
    if config["mode"] == "setup":
        run.sink.close()
        run.output.unlink(missing_ok=True)
    else:
        result.update(measure(run, config, tracer))
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(run: Run, config: dict, tracer) -> dict:
    passes: list[dict] = []
    outputs: list[Path] = []
    sink, output = run.sink, run.output
    run.clock = speed.SpeedClock()
    began = time.perf_counter()
    elapsed: list[float] = []
    while True:
        if tracer is not None:
            tracer.pass_no = len(passes)
        started = time.perf_counter()
        result = run.run_pass(sink)
        elapsed.append(time.perf_counter() - started)
        passes.append(result)
        outputs.append(output)
        # Start another pass only if a typical one still ends within the run.
        if time.perf_counter() - began + statistics.median(elapsed) > config["seconds"]:
            break
        # Only the last pass keeps its interval stream and publisher.
        result["summaries"] = result["publisher"] = None
        sink, output = run.open_sink(len(passes))
    passes_s = time.perf_counter() - began
    last = passes[-1]
    # A pass longer than the run gives one decision sample per interval;
    # replaying the publish step over the same intervals gives more.
    replays: list[dict] = []
    while len(passes) + len(replays) < config["decision_samples"]:
        sink, output = run.open_sink(len(passes) + len(replays))
        replays.append(run.publish(last["summaries"], sink))
        replays[-1]["summaries"] = replays[-1]["publisher"] = None
        outputs.append(output)
    replays_s = time.perf_counter() - began - passes_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = _thread_count()
    layers = missing = None
    if tracer is not None:
        import tracing

        tracer.uninstall()
        layers, missing = tracing.layer_metrics(tracer, len(passes))
        tracer.write(Path(config["spans_out"]))

    checked = time.perf_counter()
    publishes = passes + replays
    failed_per_publish, reasons = run.check(last, publishes, outputs)
    checks_s = time.perf_counter() - checked
    standard = run.standard_bytes(last["summaries"]) if tracer is None else None
    standard_s = time.perf_counter() - checked - checks_s
    adaptive = passes[0]["sink_bytes"]
    for path in outputs:
        path.unlink(missing_ok=True)
    attempted = sum(len(p["decisions"]) for p in publishes)
    failed = sum(len(f) for f in failed_per_publish)
    out = {
        "passes": len(passes),
        "replays": len(replays),
        "intervals": len(last["decisions"]),
        "events": last["events"],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "speed_readings_ms": run.clock.readings,
        "speed_s": run.clock.spent_s,
        "events_per_s": statistics.median(p["events_per_s"] for p in passes),
        "first_publish_s": statistics.median(p["first_publish_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "adaptive_bytes": adaptive,
        "standard_bytes": standard,
        "bytes_ratio": adaptive / standard if standard else None,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failure_reasons": reasons[:5],
        "run_process_threads": threads,
        "machine": machine_facts(),
        "layers": layers,
        "missing_layers": missing,
        "stage_s": {"passes": passes_s, "replays": replays_s, "checks": checks_s,
                    "standard": standard_s},
    }
    out.update(decision_metrics(publishes, failed_per_publish, config["tail_percentile"]))
    # Every time at the reference speed, from the run's median reading;
    # the values as measured are kept beside them.
    factor = speed.factor(statistics.median(run.clock.readings))
    out["speed_factor"] = factor
    out["as_measured"] = {name: out[name] for name in SCALED_TIMES + ("events_per_s",)}
    for name in SCALED_TIMES:
        if out[name] is not None:
            out[name] *= factor
    out["events_per_s"] /= factor
    out["pass_wall_s"] = [w * factor for w in out["pass_wall_s"]]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
