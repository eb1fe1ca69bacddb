"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
numbers next to each criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import small_detector
from vaeguard.cli import main as cli_main
from vaeguard.nn import (
    AdamConfig,
    VaeArchitecture,
    adam_init,
    adam_step,
    elbo_gradients,
    init_params,
    kl_divergence,
)
from vaeguard.pipeline import PipelineConfig, bench, summarize_trace
from vaeguard.publisher import AdaptivePublisher, PublishMode, emit
from vaeguard.scenarios import (
    CPUMINER_PHASES,
    ScenarioConfig,
    default_cpuminer_schedule,
    flood_attack_windows,
    gen_baseline,
    gen_cpuminer_scenario,
    gen_httpflood_scenario,
)
from vaeguard.sinks import FileSink
from vaeguard.summarize import vectors_to_matrix
from vaeguard.thresholds import assess
from vaeguard.vae import TrainConfig, VaeStabilityDetector

ATTACK_PHASES = CPUMINER_PHASES[1:]
ESCALATION_PHASES = CPUMINER_PHASES[:5]  # strictly increasing through compile


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def trained_full():
    """Published configuration trained on 120 baseline intervals."""
    started = time.perf_counter()
    events = gen_baseline(ScenarioConfig(seed=7, duration_s=3600.0))
    summaries = summarize_trace(events, 30.0)["web-0"]
    assert len(summaries) >= 120
    X = vectors_to_matrix([vector for _, _, vector in summaries])
    detector = VaeStabilityDetector(TrainConfig(seed=0)).fit(X)
    elapsed = time.perf_counter() - started
    return detector, elapsed


def test_criterion_1_anomaly_separation(trained_full):
    detector, train_seconds = trained_full
    started = time.perf_counter()
    schedule = default_cpuminer_schedule(900.0)
    events = gen_cpuminer_scenario(
        ScenarioConfig(seed=11, duration_s=900.0, phase_schedule=schedule)
    )
    summaries = summarize_trace(events, 30.0)["web-0"]
    phase_errors: dict[str, list[float]] = {label: [] for label in CPUMINER_PHASES}
    windows = {label: (start, end) for start, end, label in schedule}
    for key, _, vector in summaries:
        midpoint = key.start + key.length / 2
        for label, (start, end) in windows.items():
            if start <= midpoint < end:
                phase_errors[label].append(detector.score_vector(vector).recon_error)
                break
    means = {label: float(np.mean(errors)) for label, errors in phase_errors.items()}

    ladder = [means[label] for label in ESCALATION_PHASES]
    for lower, upper in zip(ladder, ladder[1:]):
        assert upper > lower, f"phase means not strictly increasing: {means}"
    for label in ATTACK_PHASES:
        assert means[label] >= 100.0 * means["normal"], (
            f"{label} only {means[label] / means['normal']:.1f}x normal"
        )
    elapsed = train_seconds + (time.perf_counter() - started)
    assert elapsed <= 120.0, f"criterion took {elapsed:.1f}s"
    ladder_text = " -> ".join(f"{means[label]:.4g}" for label in ESCALATION_PHASES)
    separation = min(means[label] / means["normal"] for label in ATTACK_PHASES)
    report(1, f"phase means {ladder_text}; miner {means['miner_execution']:.4g}; "
              f"min separation {separation:.0f}x normal; {elapsed:.1f}s")


def test_criterion_2_flood_detection(trained_full):
    detector, _ = trained_full
    started = time.perf_counter()
    events = gen_httpflood_scenario(ScenarioConfig(seed=13, duration_s=1500.0))
    summaries = summarize_trace(events, 30.0)["web-0"]
    windows = flood_attack_windows(1500.0)
    assert len(windows) == 5
    attack_flags, quiet_flags = [], []
    for key, _, vector in summaries:
        record = detector.score_vector(vector)
        verdict = assess(record, detector.threshold_policy_)
        in_attack = any(start <= key.start < end for start, end in windows)
        (attack_flags if in_attack else quiet_flags).append(not verdict.stable)
    attack_rate = float(np.mean(attack_flags))
    quiet_rate = float(np.mean(quiet_flags))
    assert attack_rate >= 0.80, f"only {attack_rate:.0%} of attack intervals flagged"
    assert quiet_rate <= 0.10, f"{quiet_rate:.0%} of quiet intervals flagged"
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0, f"criterion took {elapsed:.1f}s"
    report(2, f"attack recall {attack_rate:.0%} ({sum(attack_flags)}/{len(attack_flags)}), "
              f"quiet false-positive rate {quiet_rate:.0%} "
              f"({sum(quiet_flags)}/{len(quiet_flags)}); {elapsed:.1f}s")


def test_criterion_3_cost_reduction(trained_full, tmp_path):
    detector, _ = trained_full
    events = gen_baseline(ScenarioConfig(seed=21, duration_s=1500.0))
    summaries = summarize_trace(events, 30.0)
    assert sum(len(rows) for rows in summaries.values()) == 50
    standard_sink = FileSink(tmp_path / "standard.ndjson")
    adaptive_sink = FileSink(tmp_path / "adaptive.ndjson")
    cost_report = bench(summaries, detector, PipelineConfig(), standard_sink, adaptive_sink)
    standard_sink.close()
    adaptive_sink.close()
    assert cost_report.adaptive.unstable_intervals == 0, "trace was not all-stable"
    # exact accounting: receipts equal on-disk sizes
    assert cost_report.standard.bytes_published == (tmp_path / "standard.ndjson").stat().st_size
    assert cost_report.adaptive.bytes_published == (tmp_path / "adaptive.ndjson").stat().st_size
    ratio = cost_report.bytes_ratio
    assert ratio is not None and ratio <= 0.01, f"adaptive/standard = {ratio:.4%}"
    report(3, f"adaptive {cost_report.adaptive.bytes_published} B vs standard "
              f"{cost_report.standard.bytes_published} B; ratio {ratio:.4%} "
              f"({cost_report.reduction_factor:.0f}x reduction)")


def test_criterion_4_gradient_correctness():
    from conftest import finite_difference_gradients, max_relative_error

    started = time.perf_counter()
    arch = VaeArchitecture(input_dim=6, hidden_units=(5, 4), latent_dim=2)
    worst = 0.0
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = init_params(arch, rng)
        x = rng.uniform(-0.5, 1.5, arch.input_dim)
        eps = rng.standard_normal(arch.latent_dim)
        analytic, _, _ = elbo_gradients(arch, params, x, eps, kl_weight=1.0)
        numeric = finite_difference_gradients(arch, params, x, eps, kl_weight=1.0)
        worst = max(worst, max_relative_error(analytic, numeric))
        checked += sum(value.size for value in params.values())
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"
    assert elapsed <= 30.0, f"criterion took {elapsed:.1f}s"
    report(4, f"{checked} parameters across 20 seeds, worst relative error "
              f"{worst:.2e}; {elapsed:.1f}s")


def test_criterion_5_optimizer_oracle():
    config = AdamConfig()
    params = np.array(1.0)
    updated, _ = adam_step(params, np.array(0.1), adam_init(params), config, t=1)
    expected = 1.0 - 1e-4 * (0.1 / (math.sqrt(0.1**2) + 1e-8))
    assert abs(float(updated) - expected) <= 1e-10

    quad_config = AdamConfig(learning_rate=0.05)
    point = np.array(0.0)
    state = adam_init(point)
    losses = []
    for t in range(1, 101):
        p = float(point)
        losses.append((p - 3.0) ** 2)
        point, state = adam_step(
            point, np.array(2.0 * (p - 3.0)), state, quad_config, t
        )
    warmup = 5
    for before, after in zip(losses[warmup:], losses[warmup + 1 :]):
        assert after < before, "quadratic trajectory not monotone after warmup"
    report(5, f"single-step oracle matched to 1e-10; quadratic loss "
              f"{losses[warmup]:.3f} -> {losses[-1]:.3f} monotone over "
              f"{100 - warmup} steps")


def test_criterion_6_kl_closed_form():
    assert kl_divergence(np.zeros(3), np.zeros(3)) == 0.0
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        mu = rng.normal(0, 2, n)
        logvar = rng.normal(0, 1.5, n)
        oracle = 0.5 * sum(
            m * m + math.exp(lv) - lv - 1.0 for m, lv in zip(mu, logvar)
        )
        worst = max(worst, abs(kl_divergence(mu, logvar) - oracle))
    assert worst <= 1e-9, f"worst deviation {worst:.2e}"
    report(6, f"1000 random inputs within {worst:.2e} of the independent "
              f"evaluation; exactly 0 at (0, 0)")


def test_criterion_7_training_settles(trained_full):
    detector, _ = trained_full
    curve = detector.curve_.recon_per_epoch
    assert curve[-1] <= curve[0], "final epoch error above first epoch"
    tail = np.array(curve[-20:])
    coefficient_of_variation = float(tail.std() / tail.mean())
    assert coefficient_of_variation <= 0.10, (
        f"last-20-epoch CoV {coefficient_of_variation:.3f}"
    )
    report(7, f"epoch-1 recon {curve[0]:.6g} -> final {curve[-1]:.6g}; "
              f"last-20-epoch CoV {coefficient_of_variation:.2%}")


def test_criterion_8_determinism(tmp_path):
    trace_path = tmp_path / "trace.ndjson"
    assert cli_main([
        "simulate", "--scenario", "baseline", "--duration", "3600",
        "--seed", "7", "--out", str(trace_path),
    ]) == 0
    bundles = []
    for name in ("m1.json", "m2.json"):
        model_path = tmp_path / name
        assert cli_main([
            "train", "--trace", str(trace_path), "--model-out", str(model_path),
        ]) == 0
        bundles.append(model_path.read_bytes())
    assert bundles[0] == bundles[1], "model bundles differ across runs"

    assess_outputs = []
    for name in ("a1.ndjson", "a2.ndjson"):
        out_path = tmp_path / name
        assert cli_main([
            "assess", "--trace", str(trace_path), "--model", str(tmp_path / "m1.json"),
            "--out", str(out_path),
        ]) == 0
        assess_outputs.append(out_path.read_bytes())
    assert assess_outputs[0] == assess_outputs[1], "assess records differ across runs"
    report(8, f"model bundles byte-identical ({len(bundles[0])} B); assess "
              f"records byte-identical ({len(assess_outputs[0])} B)")


def test_criterion_9_publisher_contract():
    target = 40
    publisher = AdaptivePublisher(
        train_config=TrainConfig(
            epochs=25, batch_size=8, accumulation_target=target, seed=3
        ),
        threshold_k=3.0,
        detector_factory=lambda: small_detector(
            accumulation_target=target, epochs=25, batch_size=8, seed=3
        ),
    )
    baseline = summarize_trace(
        gen_baseline(ScenarioConfig(seed=31, duration_s=1800.0)), 30.0
    )["web-0"]
    flood = summarize_trace(
        gen_httpflood_scenario(ScenarioConfig(seed=32, duration_s=300.0)), 30.0
    )["web-0"]

    violations = 0
    modes_seen = set()
    training_fired_at = None
    for position, (key, events, vector) in enumerate([*baseline, *flood]):
        had_model = key.container_id in publisher.models
        action = publisher.process_interval(key, events, vector)
        modes_seen.add(action.mode)
        if not had_model:
            if action.mode is not PublishMode.ACCUMULATING:
                violations += 1
            if key.container_id in publisher.models and training_fired_at is None:
                training_fired_at = position + 1
        elif action.verdict.stable:
            if not (
                action.mode is PublishMode.LATENT_ONLY
                and action.latent is not None
                and action.forensics is None
            ):
                violations += 1
        else:
            if not (
                action.mode is PublishMode.LATENT_PLUS_FORENSICS
                and action.forensics == tuple(events)
            ):
                violations += 1
    assert violations == 0
    assert training_fired_at == target, (
        f"training fired after {training_fired_at} intervals, target {target}"
    )
    assert publisher.trainings_completed["web-0"] == 1
    assert modes_seen == {
        PublishMode.ACCUMULATING,
        PublishMode.LATENT_ONLY,
        PublishMode.LATENT_PLUS_FORENSICS,
    }
    total = len(baseline) + len(flood)
    report(9, f"{total} intervals, 0 truth-table violations; training fired "
              f"exactly at interval {training_fired_at}")


def test_criterion_10_throughput(trained_full, tmp_path):
    detector, _ = trained_full
    events = gen_baseline(ScenarioConfig(seed=41, duration_s=1500.0))
    summaries = summarize_trace(events, 30.0)["web-0"]
    publisher = AdaptivePublisher(train_config=TrainConfig(), threshold_k=3.0)
    publisher.install_model("web-0", detector)
    sink = FileSink(tmp_path / "out.ndjson")
    durations = []
    for key, group, vector in summaries:
        started = time.perf_counter()
        action = publisher.process_interval(key, group, vector)
        emit(action, sink)
        durations.append(time.perf_counter() - started)
    sink.close()
    worst_ms = 1000.0 * max(durations)
    mean_ms = 1000.0 * float(np.mean(durations))
    assert worst_ms <= 50.0, f"slowest interval took {worst_ms:.2f} ms"
    report(10, f"{len(durations)} intervals; mean {mean_ms:.3f} ms, "
               f"max {worst_ms:.3f} ms per scoring+publish decision")
