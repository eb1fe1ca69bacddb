"""Benchmark of vaeguard's trace -> verdict -> sink path.

    python3 perfbench/run.py --workload hijack --seed 11 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from `src/`
and writes only under `.perfbench/`. Each run:

1. generates the workload's inputs from `--seed` in a process of its own
   (a trace file, and a model bundle for `steady` and `hijack`);
2. with `--trace 0`, times set-up in several fresh processes, then
   replays the trace through the library in one more fresh process for
   `--seconds`, and prints the end-to-end metrics;
3. with `--trace 1`, runs the same replay once without and once with
   spans around each layer's public functions, and prints the per-layer
   metrics and the tracing overhead.

Every run checks what the sink received and exits non-zero on any
failure. Human-readable lines come first; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as inputs_mod
import speed
import tracing
from endpoint import BulkEndpoint

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # fresh processes timed for setup_s
DECISION_SAMPLES = 3  # per interval, from passes and publish-only replays
DEADLINE_S = 170.0  # every child process is killed after this

# (name, unit): every one is in the last line with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("first_publish_s", "s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
)
# Printed with the end-to-end metrics, but not in the last line: they apply
# to one workload only, are 0 by design, or depend on the seed's drift count.
REPORTED = (
    ("train_s_per_container", "s"),
    ("adaptive_bytes", "bytes"),
    ("bytes_ratio", "ratio"),
    ("error_rate", "fraction"),
)


class ChildFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.workload = inputs_mod.WORKLOADS[args.workload]
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = root / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        self.env = self._child_env()
        self.endpoint = None
        self.inputs: dict = {}
        self.stage_s: dict[str, float] = {}

    def _child_env(self) -> dict:
        # Loopback only: no proxy may see the bulk endpoint's traffic.
        env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
        paths = [str(self.root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        env.update(
            PYTHONPATH=os.pathsep.join(paths),
            PYTHONHASHSEED="0",
            no_proxy="127.0.0.1,localhost",
            # Single-threaded BLAS: with the endpoint's one thread, the run
            # stays within two cores.
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return env

    def _child(self, script: str, argv: list[str]) -> None:
        """Run one fresh interpreter to completion."""
        cmd = [sys.executable, str(HERE / script), *argv]
        if script == "worker.py":
            cmd.append(repr(time.monotonic()))  # the spawn time, for setup_s
        self._run(cmd, script, stdout=sys.stderr)

    def _run(self, cmd: list[str], what: str, stdout) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("time budget spent before the next process")
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=stdout, timeout=remaining, text=True
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{what} exceeded the time budget") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{what} exited with code {proc.returncode}")
        return proc

    def _reference_spawn(self) -> float:
        """Seconds from spawning the reference process until its imports are done."""
        spawned = time.monotonic()
        proc = self._run([sys.executable, "-c", speed.REFERENCE_SPAWN_CODE], "reference process",
                         stdout=subprocess.PIPE)
        return float(proc.stdout) - spawned

    def prepare(self) -> None:
        a = self.args
        began = time.monotonic()
        self._child("inputs.py", [str(self.workdir), a.workload, str(a.seed), a.size, str(a.bundle_seed)])
        self.inputs = json.loads((self.workdir / "inputs.json").read_text(encoding="utf-8"))
        self.stage_s["inputs"] = time.monotonic() - began

    def worker(self, mode: str, seconds: float, tag: str, **extra) -> dict:
        result = self.workdir / f"result-{tag}.json"
        config = {
            "mode": mode,
            "workdir": str(self.workdir),
            "inputs": self.inputs,
            "sink": self.workload.sink,
            "endpoint": self.endpoint.url if self.endpoint else None,
            "seconds": seconds,
            "tail_percentile": self.workload.tail_percentile,
            "corrupt_record": self.args.corrupt_record,
            "decision_samples": 1,
            "result": str(result),
            **extra,
        }
        path = self.workdir / f"config-{tag}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        self._child("worker.py", [str(path)])
        return json.loads(result.read_text(encoding="utf-8"))

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self) -> tuple[dict, list[str], dict]:
        began = time.monotonic()
        # Each set-up process is paired with a reference process that
        # imports what set-up imports besides the program (see speed.py).
        samples, references = [], []
        for i in range(SETUP_SAMPLES):
            references.append(self._reference_spawn())
            samples.append(self.worker("setup", 0, f"setup{i}")["setup_s"])
        self.stage_s["setup samples"] = time.monotonic() - began
        run = self.worker("plain", self.args.seconds, "run", decision_samples=DECISION_SAMPLES)
        run["as_measured"]["setup_s"] = statistics.median(samples)
        run["setup_s"] = speed.REFERENCE_SPAWN_S * statistics.median(
            s / r for s, r in zip(samples, references))
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}
        lines = self._common_lines(run)
        lines.append(f"setup_s: median over {len(samples)} fresh processes of set-up time over the"
                     f" reference process's time, times {speed.REFERENCE_SPAWN_S:g} s")
        lines.append("  set-up s as measured " + " ".join(f"{s:.4f}" for s in samples))
        lines.append("  reference s          " + " ".join(f"{r:.4f}" for r in references))
        lines.append(f"decision samples: {run['decision_samples']} intervals (per-interval median over"
                     f" {run['passes']} passes and {run['replays']} publish replays);"
                     f" tail is p{run['tail_percentile']:g};"
                     f" {run['trainings']} calls that trained are excluded")
        for name, unit in END_TO_END + REPORTED:
            value = run.get(name)
            shown = "n/a (no training in this workload)" if value is None else f"{value:.6g} {unit}"
            measured = run["as_measured"].get(name)
            if measured is not None:
                shown += f"  (as measured {measured:.6g})"
            lines.append(f"  {name:<24} {shown}")
        if run["standard_bytes"] is not None:
            lines.append(f"standard publisher: {run['standard_bytes']} bytes over the same intervals")
        return metrics, lines, run

    def traced(self) -> tuple[dict, list[str], dict]:
        half = self.args.seconds / 2.0
        plain = self.worker("plain", half, "untraced")
        traces = self.root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans = traces / f"{self.args.workload}-s{self.args.seed}.spans.jsonl"
        run = self.worker("traced", half, "traced", spans_out=str(spans))
        overhead = statistics.median(run["pass_wall_s"]) / statistics.median(plain["pass_wall_s"])
        units = {name: unit for name, unit, *_ in tracing.PER_LAYER + tracing.SETUP_LAYER}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in run["layers"].items()}
        name, unit, _ = tracing.OVERHEAD
        metrics[name] = {"value": overhead, "unit": unit}
        lines = self._common_lines(run)
        lines.append(f"spans written to {spans.relative_to(self.root)}")
        lines.append("missing layers: " + (", ".join(run["missing_layers"]) or "none"))
        for metric, entry in metrics.items():
            lines.append(f"  {metric:<36} {entry['value']:.6g} {entry['unit']}")
        run["attempted"] += plain["attempted"]
        run["failed"] += plain["failed"]
        run["failure_reasons"] += plain["failure_reasons"]
        return metrics, lines, run

    def _common_lines(self, run: dict) -> list[str]:
        m, i = run["machine"], self.inputs
        endpoint_threads = 1 if self.endpoint else 0
        blas = m["blas"]
        lines = [
            f"machine: nproc {self.args.nproc}, Python {m['python']}, numpy {m['numpy']},"
            f" BLAS {blas.get('name')} {blas.get('version')},"
            f" OPENBLAS_NUM_THREADS={m['blas_threads_env']}",
            f"BLAS configuration: {blas.get('openblas configuration', 'unknown').strip()}",
            f"threads: run process {run['run_process_threads']} + loopback endpoint"
            f" {endpoint_threads}, all on cpu {self.args.cpu} (nproc {self.args.nproc})",
            f"input: trace {i['trace_events']} events, sha256 {i['trace_sha256']}",
        ]
        if i["bundle"]:
            lines.append(f"input: bundle (seed {i['bundle_seed']}), sha256 {i['bundle_sha256']}")
        if self.endpoint:
            lines.append(f"loopback endpoint: {self.endpoint.requests} requests,"
                         f" {self.endpoint.bytes_received} bytes received in this run")
        readings = run["speed_readings_ms"]
        lines.append(f"speed: {len(readings)} readings, kernel ms min/median/max"
                     f" {min(readings):.2f}/{statistics.median(readings):.2f}/{max(readings):.2f};"
                     f" times below are at the reference {speed.REFERENCE_MS:g} ms"
                     f" (factor {run['speed_factor']:.4f}); {run['speed_s']:.1f} s spent reading")
        lines.append(f"passes: {run['passes']} of {run['intervals']} intervals, wall s "
                     + " ".join(f"{w:.3f}" for w in run["pass_wall_s"]))
        stages = {**self.stage_s, **run["stage_s"]}
        lines.append("time spent: " + ", ".join(f"{k} {v:.1f} s" for k, v in stages.items()))
        lines += [f"FAILED: {reason}" for reason in run["failure_reasons"]]
        return lines

    def run(self) -> tuple[dict, list[str], dict]:
        self.workdir.mkdir(parents=True)
        try:
            self.prepare()
            with contextlib.ExitStack() as stack:
                if self.workload.sink == "http":
                    self.endpoint = stack.enter_context(BulkEndpoint(self.workdir))
                return self.traced() if self.args.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bundle-seed", type=int, default=inputs_mod.BUNDLE_SEED)
    parser.add_argument("--size", choices=sorted(inputs_mod.SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--corrupt-record", type=int, default=None,
                        help="self-test: corrupt one published record before the check")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = inputs_mod.WORKLOADS[args.workload].default_seed
    return args


def main(argv: list[str]) -> int:
    # On SIGTERM, unwind so the running child is killed and reaped, the
    # endpoint is shut down and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    # One CPU for everything the run starts: the run process, the loopback
    # endpoint's thread and the processes timed for set-up. The speed
    # readings the run process takes then describe the CPU all of them
    # ran on. Child processes and threads inherit the mask.
    args.nproc = len(os.sched_getaffinity(0))
    args.cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpu})
    root = Path.cwd()
    if not (root / "src" / "vaeguard" / "__init__.py").is_file():
        print("perfbench: src/vaeguard not found; run from the root of a vaeguard checkout",
              file=sys.stderr)
        return 2
    try:
        metrics, lines, run = Bench(args, root).run()
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: workload {args.workload}, seed {args.seed}, size {args.size},"
          f" seconds {args.seconds:g}, trace {args.trace}")
    for line in lines:
        print(line)
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
