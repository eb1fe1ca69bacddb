"""Command-line front end: simulate, train, assess, bench.

Exit codes: 0 success; a `VaeguardError` ends the command with its
class's `exit_code` (2 configuration/usage errors, 3 trace or data
errors, 4 model errors, 5 sink unavailable), an OSError with 3 and a
ValueError with 2.

Every flag can also come from a config file (`--config pipeline.cfg`)
holding one `key = value` pair per line with `#` comments; explicit
flags override file values.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from vaeguard.errors import EmptyDataset, InvalidConfig, VaeguardError
from vaeguard.events import read_trace_file, write_trace_file
from vaeguard.nn import DEFAULT_HIDDEN_UNITS, DEFAULT_LATENT_DIM
from vaeguard.pipeline import (
    PipelineConfig,
    assess_trace,
    bench,
    summarize_trace,
)
from vaeguard.publisher import DEFAULT_FORENSICS_INDEX, DEFAULT_LATENT_INDEX
from vaeguard.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    default_cpuminer_schedule,
    flood_attack_windows,
)
from vaeguard.sinks import DEFAULT_BULK_BATCH_SIZE, FileSink, HttpBulkSink
from vaeguard.summarize import DEFAULT_INTERVAL_LEN, FEATURE_DIM, interval_stream, vectors_to_matrix
from vaeguard.thresholds import DEFAULT_K, HeuristicThreshold, fit_threshold_ksigma, is_stable
from vaeguard.vae import TrainConfig, VaeStabilityDetector, load_model, save_model

logger = logging.getLogger(__name__)

_DEFAULT_DURATIONS = {"baseline": 3600.0, "cpuminer": 900.0, "httpflood": 1500.0}


def _parse_hidden_units(text: str) -> tuple[int, ...]:
    try:
        units = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidConfig(f"bad hidden-units {text!r}") from exc
    if not units:
        raise InvalidConfig("hidden-units must name at least one layer")
    return units


def _load_config_flags(path: str) -> list[str]:
    """Turn `key = value` lines into flag tokens prepended to argv."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    flags: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        flags.extend([flag, value.strip()])
    return flags


def _expand_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    position = argv.index("--config")
    if position + 1 >= len(argv):
        raise InvalidConfig("--config requires a file path")
    config_flags = _load_config_flags(argv[position + 1])
    remainder = argv[:position] + argv[position + 2 :]
    # the main parser's own flags (-v, -h) take no value, so the subcommand
    # is the first other token; insert after it so explicit flags still win
    command = next((i for i, token in enumerate(remainder) if not token.startswith("-")), None)
    if command is None:
        raise InvalidConfig("--config needs a subcommand")
    return [*remainder[: command + 1], *config_flags, *remainder[command + 1 :]]


def _add_interval_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--interval-len", type=float, default=DEFAULT_INTERVAL_LEN, help="summarizer window seconds"
    )


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(TrainConfig):
        flag = "--adam-epsilon" if f.name == "epsilon" else "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)
    parser.add_argument(
        "--hidden-units", type=str, default=",".join(map(str, DEFAULT_HIDDEN_UNITS))
    )
    parser.add_argument("--latent-dim", type=int, default=DEFAULT_LATENT_DIM)
    parser.add_argument("--k", type=float, default=DEFAULT_K, help="k-sigma threshold multiplier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaeguard",
        description="Container stability assessment and adaptive forensic publishing",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic trace")
    p_sim.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    p_sim.add_argument("--duration", type=float, default=None, help="seconds")
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--container", type=str, default="web-0")
    p_sim.add_argument("--rate", type=float, default=1.0, help="requests per second")
    p_sim.add_argument("--flood-factor", type=float, default=100.0)
    p_sim.add_argument("--out", type=str, required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train a stability model from a trace")
    p_train.add_argument("--trace", type=str, required=True)
    p_train.add_argument("--model-out", type=str, required=True)
    p_train.add_argument("--container", type=str, default=None)
    p_train.add_argument("--curve-out", type=str, default=None)
    _add_interval_flag(p_train)
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    # the flags of a run that scores a trace with a loaded model (_scoring_run)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--trace", type=str, required=True)
    scoring.add_argument("--model", type=str, required=True)
    scoring.add_argument("--k", type=float, default=None, help="override k-sigma")
    scoring.add_argument(
        "--heuristic-threshold", type=float, default=None, help="fixed threshold override"
    )
    _add_interval_flag(scoring)

    p_assess = sub.add_parser("assess", parents=[scoring], help="score a trace against a model")
    p_assess.add_argument("--out", type=str, default=None, help="verdict records file")
    p_assess.set_defaults(func=cmd_assess)

    p_bench = sub.add_parser(
        "bench", parents=[scoring], help="compare standard vs adaptive publishing costs"
    )
    p_bench.add_argument("--out-dir", type=str, required=True)
    p_bench.add_argument("--report-out", type=str, default=None)
    p_bench.add_argument(
        "--endpoint", type=str, default=None, help="publish to HTTP bulk endpoint"
    )
    p_bench.add_argument("--bulk-batch-size", type=int, default=DEFAULT_BULK_BATCH_SIZE)
    p_bench.add_argument("--latent-index", type=str, default=DEFAULT_LATENT_INDEX)
    p_bench.add_argument("--forensics-index", type=str, default=DEFAULT_FORENSICS_INDEX)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def cmd_simulate(args) -> int:
    duration = args.duration
    if duration is None:
        duration = _DEFAULT_DURATIONS[args.scenario]
    schedule = ()
    if args.scenario == "cpuminer":
        schedule = default_cpuminer_schedule(duration)
    config = ScenarioConfig(
        seed=args.seed,
        duration_s=duration,
        container_id=args.container,
        base_request_rate=args.rate,
        phase_schedule=schedule,
        flood_factor=args.flood_factor,
    )
    events = SCENARIOS[args.scenario](config)
    count = write_trace_file(events, args.out)
    print(f"wrote {count} events to {args.out}")
    if args.scenario == "httpflood":
        windows = flood_attack_windows(duration)
        print(f"attack windows: {len(windows)}")
    if args.scenario == "cpuminer":
        for start, end, label in schedule:
            print(f"phase {label}: [{start:.0f}, {end:.0f}) s")
    return 0


def _single_container_summaries(summaries: dict, requested: str | None):
    if not summaries:
        raise EmptyDataset("trace has no events")
    if requested is not None:
        if requested not in summaries:
            raise InvalidConfig(
                f"container {requested!r} not present; trace has {sorted(summaries)}"
            )
        return requested, summaries[requested]
    if len(summaries) != 1:
        raise InvalidConfig(
            f"trace has containers {sorted(summaries)}; select one with --container"
        )
    ((container, rows),) = summaries.items()
    return container, rows


def cmd_train(args) -> int:
    events = read_trace_file(args.trace)
    summaries = summarize_trace(events, args.interval_len)
    container, rows = _single_container_summaries(summaries, args.container)
    vectors = [vector for _, _, vector in rows]
    config = PipelineConfig(
        interval_len=args.interval_len,
        train=TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)}),
        threshold_k=args.k,
    )
    detector = VaeStabilityDetector(
        config.train, _parse_hidden_units(args.hidden_units), args.latent_dim, config.threshold_k
    )
    detector.container_id = container
    detector.fit(vectors_to_matrix(vectors))
    save_model(detector, args.model_out)

    curve = detector.curve_
    table_lines = ["epoch\trecon\tkl"]
    for epoch, (recon, kl) in enumerate(
        zip(curve.recon_per_epoch, curve.kl_per_epoch), 1
    ):
        table_lines.append(f"{epoch}\t{recon!r}\t{kl!r}")
    table = "\n".join(table_lines)
    if args.curve_out:
        Path(args.curve_out).write_text(table + "\n", encoding="utf-8")
    print(table)
    print(
        f"trained {container} on {len(vectors)} intervals:"
        f" settled recon {curve.settled_error!r},"
        f" error mean {curve.error_mean!r}, sd {curve.error_sd!r},"
        f" threshold {detector.threshold_!r} (k={args.k})"
    )
    print(f"model bundle written to {args.model_out}")
    return 0


def _scoring_run(args, **config_fields):
    """What `assess` and `bench` share: read --trace, load --model, apply
    --heuristic-threshold (else --k) as its threshold policy and build the
    PipelineConfig. Each command windows the events next. The order is
    fixed, so the same error wins when several inputs are bad."""
    events = read_trace_file(args.trace)
    detector = load_model(args.model, expected_dim=FEATURE_DIM)
    if args.heuristic_threshold is not None:
        detector.threshold_policy_ = HeuristicThreshold(args.heuristic_threshold)
    elif args.k is not None:
        detector.set_threshold_k(args.k)
    config = PipelineConfig(interval_len=args.interval_len, **config_fields)
    return config, events, detector


def cmd_assess(args) -> int:
    config, events, detector = _scoring_run(args)
    records = assess_trace(interval_stream(events, config.interval_len), detector, config)
    if args.out:
        text = "".join(record.to_json() + "\n" for record in records)
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    for record in records:
        print(
            f"{record.container} interval {record.interval:4d}"
            f" recon={record.recon_error:.6g}"
            f" threshold={record.threshold:.6g}"
            f" {'stable' if record.stable else 'UNSTABLE'} mode={record.mode}"
        )
    unstable = sum(not record.stable for record in records)
    print(f"assessed {len(records)} intervals: {unstable} unstable at configured policy")
    # sweep the conventional multipliers for context
    errors = [record.recon_error for record in records]
    sweep = []
    for k in (1.0, 3.0, 5.0):
        stable = is_stable(errors, fit_threshold_ksigma(detector.curve_, k).threshold)
        sweep.append(f"k={k:g}: {np.count_nonzero(~stable)}")
    print("unstable intervals by k-sigma policy: " + ", ".join(sweep))
    return 0


def cmd_bench(args) -> int:
    config, events, detector = _scoring_run(
        args,
        bulk_batch_size=args.bulk_batch_size,
        latent_index=args.latent_index,
        forensics_index=args.forensics_index,
    )
    summaries = summarize_trace(events, config.interval_len)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.endpoint:
        standard_sink = HttpBulkSink(args.endpoint, batch_size=config.bulk_batch_size)
        adaptive_sink = HttpBulkSink(args.endpoint, batch_size=config.bulk_batch_size)
    else:
        standard_sink = FileSink(out_dir / "standard.ndjson")
        adaptive_sink = FileSink(out_dir / "adaptive.ndjson")
    try:
        report = bench(summaries, detector, config, standard_sink, adaptive_sink)
    finally:
        standard_sink.close()
        adaptive_sink.close()

    print(report.format_table())
    if args.report_out:
        Path(args.report_out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {args.report_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_expand_config(argv))
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except VaeguardError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
