"""Workload definitions and seeded input preparation.

Run as a script, this module generates one workload's inputs into a work
directory and writes `inputs.json` there:

    python3 perfbench/inputs.py WORKDIR WORKLOAD SEED SIZE BUNDLE_SEED

It runs in a process of its own, so neither the time nor the memory of
generating inputs is charged to the measured run process. The program
under test only ever receives the files written here: a trace, and for
the single-container workloads a model bundle.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

INTERVAL_LEN = 30.0


@dataclass(frozen=True)
class Workload:
    default_seed: int
    sink: str  # "file" (FileSink) or "http" (HttpBulkSink to the loopback endpoint)
    uses_bundle: bool
    # Highest percentile leaving at least 10 per-interval samples beyond it
    # at the full size; fixed here so the metric means the same in every run.
    tail_percentile: int


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "steady": Workload(21, "file", True, 90),
    "hijack": Workload(11, "file", True, 66),
    "fleet-onboard": Workload(1, "http", False, 98),
}

BUNDLE_SEED = 7

FLEET_RATE = 0.05  # requests per second per container

# The six cpuminer phases in canonical order over 30 intervals, with a
# long package download and a quarter-minute of compiling: about 190k
# events instead of the default schedule's 684k, so that a pass takes
# seconds and a run holds several. Two intervals are normal; the drift
# intervals hold about 3k events (shell connect), 3.6k (23 of package
# download), 6.4k (shell commands), 10k (2 of the miner) and 75k (the
# one with compiling). Sorted by decision time, the median and the p66
# decision both fall well inside the package-download block, so
# neither moves to another phase from seed to seed.
HIJACK_SCHEDULE = (
    (0.0, 60.0, "normal"),
    (60.0, 90.0, "shell_connect"),
    (90.0, 120.0, "shell_commands"),
    (120.0, 810.0, "package_download"),
    (810.0, 825.0, "compile"),
    (825.0, 900.0, "miner_execution"),
)


def tiny_cpuminer_schedule(duration_s: float) -> tuple:
    """The six cpuminer phases in canonical order, 30 s each."""
    labels = ("normal", "shell_connect", "shell_commands", "package_download",
              "compile", "miner_execution")
    step = duration_s / len(labels)
    return tuple((i * step, (i + 1) * step, label) for i, label in enumerate(labels))


# Full sizes are the benchmark; "tiny" sizes exist for the self-test only.
SIZES = {
    "full": {
        "steady_s": 3600.0,
        "hijack_schedule": HIJACK_SCHEDULE,
        # Per container: 120 intervals accumulate, one trains and 29 are
        # scored, so the p98 decision falls among ordinary scored
        # intervals, not the slower first few after each training.
        "fleet_s": 4500.0,
        "fleet_containers": 4,
        "fleet_train": {},
    },
    "tiny": {
        "steady_s": 300.0,
        "hijack_schedule": tiny_cpuminer_schedule(120.0),
        "fleet_s": 600.0,
        "fleet_containers": 2,
        "fleet_train": {"accumulation_target": 12, "epochs": 2},
    },
}


def source_digest(src: Path) -> str:
    """Digest of the package sources, so a cached bundle never outlives them."""
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _generate_events(workload: str, seed: int, size: dict):
    from vaeguard.scenarios import ScenarioConfig, gen_baseline, gen_cpuminer_scenario

    if workload == "steady":
        return gen_baseline(ScenarioConfig(seed=seed, duration_s=size["steady_s"]))
    if workload == "hijack":
        schedule = size["hijack_schedule"]
        duration = schedule[-1][1]
        return gen_cpuminer_scenario(
            ScenarioConfig(seed=seed, duration_s=duration, phase_schedule=schedule)
        )
    # fleet-onboard: per-container baselines merged by timestamp; ties keep
    # container order, as the scenario generators' own merge does.
    streams = [
        gen_baseline(
            ScenarioConfig(
                seed=seed * 100 + i,
                duration_s=size["fleet_s"],
                container_id=f"web-{i}",
                base_request_rate=FLEET_RATE,
            )
        )
        for i in range(size["fleet_containers"])
    ]
    return list(heapq.merge(*streams, key=lambda event: event.timestamp))


def _bundle(cache_dir: Path, src: Path, bundle_seed: int) -> Path:
    """The README quickstart model: baseline, 3,600 s, default TrainConfig.

    Cached per bundle seed and source digest; trained in this process when
    absent, never in the measured one.
    """
    path = cache_dir / f"bundle-seed{bundle_seed}-{source_digest(src)}.model.json"
    if path.exists():
        return path
    from vaeguard.pipeline import PipelineConfig, summarize_trace
    from vaeguard.scenarios import ScenarioConfig, gen_baseline
    from vaeguard.summarize import vectors_to_matrix
    from vaeguard.vae import save_model

    events = gen_baseline(ScenarioConfig(seed=bundle_seed, duration_s=3600.0))
    ((container, rows),) = summarize_trace(events, INTERVAL_LEN).items()
    detector = PipelineConfig(interval_len=INTERVAL_LEN).detector()
    detector.container_id = container
    detector.fit(vectors_to_matrix([vector for _, _, vector in rows]))
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + f".{os.getpid()}.part")
    save_model(detector, partial)
    os.replace(partial, path)
    return path


def prepare(workdir: Path, workload: str, seed: int, size_name: str, bundle_seed: int) -> dict:
    from vaeguard.events import write_trace_file

    root = Path.cwd()
    size = SIZES[size_name]
    events = _generate_events(workload, seed, size)
    trace = workdir / "trace.ndjson"
    count = write_trace_file(events, trace)
    del events
    inputs = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "trace": str(trace),
        "trace_events": count,
        "trace_sha256": file_sha256(trace),
        "train": size["fleet_train"] if workload == "fleet-onboard" else {},
        "bundle": None,
        "bundle_seed": None,
        "bundle_sha256": None,
    }
    if WORKLOADS[workload].uses_bundle:
        bundle = _bundle(root / ".perfbench" / "cache", root / "src" / "vaeguard", bundle_seed)
        inputs.update(bundle=str(bundle), bundle_seed=bundle_seed,
                      bundle_sha256=file_sha256(bundle))
    return inputs


def main(argv: list[str]) -> int:
    workdir, workload, seed, size_name, bundle_seed = argv
    workdir = Path(workdir)
    inputs = prepare(workdir, workload, int(seed), size_name, int(bundle_seed))
    (workdir / "inputs.json").write_text(json.dumps(inputs, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
