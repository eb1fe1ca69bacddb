import copy
import json

import pytest

from vaeguard.errors import InvalidConfig
from vaeguard.pipeline import (
    CostReport,
    ModeCost,
    PipelineConfig,
    assess_trace,
    bench,
    record_for_action,
    summarize_trace,
)
from vaeguard.publisher import PublishMode, parse_action
from vaeguard.scenarios import ScenarioConfig, flood_attack_windows, gen_baseline, gen_httpflood_scenario
from vaeguard.sinks import FileSink
from vaeguard.thresholds import HeuristicThreshold


@pytest.fixture(scope="module")
def fresh_baseline_summaries():
    events = gen_baseline(ScenarioConfig(seed=23, duration_s=300.0))
    return summarize_trace(events, 30.0)


@pytest.fixture(scope="module")
def flood_summaries():
    events = gen_httpflood_scenario(ScenarioConfig(seed=24, duration_s=300.0))
    return summarize_trace(events, 30.0)


def test_pipeline_config_validation():
    for interval_len in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidConfig):
            PipelineConfig(interval_len=interval_len)
    for threshold_k in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidConfig):
            PipelineConfig(threshold_k=threshold_k)
    with pytest.raises(InvalidConfig):
        PipelineConfig(cache_capacity=0)
    with pytest.raises(InvalidConfig):
        PipelineConfig(bulk_batch_size=0)


def test_assess_trace_produces_record_per_interval(
    fresh_baseline_summaries, small_trained_detector
):
    rows = fresh_baseline_summaries["web-0"]
    records = assess_trace(rows, small_trained_detector, PipelineConfig())
    assert len(records) == len(rows)
    for record in records:
        assert record.recon_error is not None
        assert record.mode in ("latent", "latent_forensics")
        assert record.stable == (record.recon_error <= record.threshold)


def test_assess_records_have_machine_readable_form(
    fresh_baseline_summaries, small_trained_detector
):
    records = assess_trace(
        fresh_baseline_summaries["web-0"], small_trained_detector, PipelineConfig()
    )
    row = json.loads(records[0].to_json())
    assert set(row) == {
        "container",
        "interval",
        "start",
        "recon_error",
        "threshold",
        "stable",
        "mode",
    }


def test_both_pipelines_consume_identical_streams(
    fresh_baseline_summaries, small_trained_detector, tmp_path
):
    s1 = FileSink(tmp_path / "standard.ndjson")
    s2 = FileSink(tmp_path / "adaptive.ndjson")
    report = bench(fresh_baseline_summaries, small_trained_detector, PipelineConfig(), s1, s2)
    s1.close()
    s2.close()
    standard_actions, adaptive_actions = (
        [parse_action(line) for line in (tmp_path / name).read_bytes().splitlines()]
        for name in ("standard.ndjson", "adaptive.ndjson")
    )
    assert report.standard.intervals == report.adaptive.intervals == len(standard_actions)
    assert report.standard.events == report.adaptive.events
    assert [a.key for a in standard_actions] == [a.key for a in adaptive_actions]
    assert {a.mode for a in standard_actions} == {PublishMode.FORENSICS_ONLY}


def test_bench_all_stable_massive_reduction(
    fresh_baseline_summaries, small_trained_detector, tmp_path
):
    config = PipelineConfig()
    s1 = FileSink(tmp_path / "standard.ndjson")
    s2 = FileSink(tmp_path / "adaptive.ndjson")
    report = bench(fresh_baseline_summaries, small_trained_detector, config, s1, s2)
    s1.close()
    s2.close()
    assert report.adaptive.unstable_intervals == 0
    assert report.bytes_ratio is not None
    assert report.bytes_ratio <= 0.01
    assert report.standard.bytes_published == (tmp_path / "standard.ndjson").stat().st_size
    assert report.adaptive.bytes_published == (tmp_path / "adaptive.ndjson").stat().st_size


def test_bench_all_unstable_adaptive_costs_more(
    flood_summaries, small_trained_detector, tmp_path
):
    # force every interval over threshold: tiny heuristic value
    config = PipelineConfig()
    detector = copy.deepcopy(small_trained_detector)
    detector.threshold_policy_ = HeuristicThreshold(1e-12)
    s1 = FileSink(tmp_path / "standard.ndjson")
    s2 = FileSink(tmp_path / "adaptive.ndjson")
    report = bench(flood_summaries, detector, config, s1, s2)
    s1.close()
    s2.close()
    assert report.adaptive.unstable_intervals == report.adaptive.intervals
    assert report.adaptive.bytes_published >= report.standard.bytes_published


def test_report_ratios_equal_byte_quotients(
    fresh_baseline_summaries, small_trained_detector, tmp_path
):
    config = PipelineConfig()
    s1 = FileSink(tmp_path / "s.ndjson")
    s2 = FileSink(tmp_path / "a.ndjson")
    report = bench(fresh_baseline_summaries, small_trained_detector, config, s1, s2)
    s1.close()
    s2.close()
    assert report.bytes_ratio == (
        report.adaptive.bytes_published / report.standard.bytes_published
    )
    assert report.reduction_factor == (
        report.standard.bytes_published / report.adaptive.bytes_published
    )


def test_report_cpu_seconds_and_ratio(fresh_baseline_summaries, small_trained_detector, tmp_path):
    s1 = FileSink(tmp_path / "s.ndjson")
    s2 = FileSink(tmp_path / "a.ndjson")
    report = bench(fresh_baseline_summaries, small_trained_detector, PipelineConfig(), s1, s2)
    s1.close()
    s2.close()
    for cost in (report.standard, report.adaptive):
        assert 0 < cost.cpu_seconds and 0 < cost.wall_seconds
    assert report.cpu_ratio == report.adaptive.cpu_seconds / report.standard.cpu_seconds
    doc = json.loads(report.to_json())
    assert doc["cpu_ratio"] == report.cpu_ratio
    assert doc["standard"]["cpu_seconds"] == report.standard.cpu_seconds
    assert doc["adaptive"]["cpu_seconds"] == report.adaptive.cpu_seconds
    table = report.format_table()
    assert f"{report.adaptive.cpu_seconds:.3f}" in table.split("cpu seconds")[1].splitlines()[0]
    assert f"adaptive/standard cpu: {report.cpu_ratio:.6f}" in table


def test_ratios_undefined_on_zero_denominators():
    report = CostReport(standard=ModeCost(), adaptive=ModeCost())
    assert report.bytes_ratio is None
    assert report.reduction_factor is None
    assert report.cpu_ratio is None
    assert json.loads(report.to_json())["cpu_ratio"] is None


def test_flood_verdicts_align_with_attack_windows(
    flood_summaries, small_trained_detector
):
    records = assess_trace(flood_summaries["web-0"], small_trained_detector, PipelineConfig())
    windows = flood_attack_windows(300.0)
    for record in records:
        in_attack = any(s <= record.start < e for s, e in windows)
        assert record.stable == (not in_attack), record


def test_record_for_action_accumulating():
    from vaeguard.publisher import PublishAction
    from vaeguard.summarize import IntervalKey

    action = PublishAction(
        key=IntervalKey("box", 0, 30.0), mode=PublishMode.ACCUMULATING
    )
    record = record_for_action(action)
    assert record.recon_error is None
    assert record.stable is None
    assert record.mode == "accumulating"


def test_report_table_renders():
    report = CostReport(
        standard=ModeCost(intervals=5, events=100, bytes_published=1000),
        adaptive=ModeCost(intervals=5, events=100, bytes_published=10),
    )
    table = report.format_table()
    assert "standard" in table and "adaptive" in table
    assert "0.010000" in table
