"""Golden digests of the bytes vaeguard writes.

Each digest was computed once and is fixed here, so any byte drift in a
trained bundle, a FileSink record or a bulk request body fails the suite.
"""

import hashlib
import urllib.request

import numpy as np
import pytest

from vaeguard.cli import main as cli_main
from vaeguard.events import write_trace_file
from vaeguard.nn import VaeArchitecture, param_buffer
from vaeguard.pipeline import summarize_trace
from vaeguard.publisher import AdaptivePublisher, StandardPublisher, emit
from vaeguard.scenarios import ScenarioConfig, gen_baseline, gen_cpuminer_scenario
from vaeguard.sinks import FileSink, HttpBulkSink
from vaeguard.summarize import FEATURE_DIM
from vaeguard.vae import TrainConfig, train

# 24 quiet 10 s intervals, then one 10 s interval per attack phase
_SCHEDULE = (
    (0.0, 240.0, "normal"),
    (240.0, 250.0, "shell_connect"),
    (250.0, 260.0, "shell_commands"),
    (260.0, 270.0, "package_download"),
    (270.0, 280.0, "compile"),
    (280.0, 290.0, "miner_execution"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def cpuminer_rows():
    events = gen_cpuminer_scenario(
        ScenarioConfig(seed=5, duration_s=300.0, phase_schedule=_SCHEDULE)
    )
    return summarize_trace(events, 10.0)["web-0"]


def publish_stream(rows, make_sink, **indices):
    """Adaptive publisher (online training, default architecture) then the
    standard one over the same rows, each to a sink of its own."""
    publishers = (
        AdaptivePublisher(
            TrainConfig(
                learning_rate=1e-3, epochs=30, batch_size=4, accumulation_target=20, seed=1
            )
        ),
        StandardPublisher(),
    )
    modes = []
    for name, publisher in zip(("adaptive", "standard"), publishers):
        sink = make_sink(name)
        try:
            for key, events, vector in rows:
                action = publisher.process_interval(key, events, vector)
                emit(action, sink, **indices)
                modes.append(action.mode.value)
        finally:
            sink.close()
    return modes


def test_train_bundle_golden(tmp_path):
    trace = tmp_path / "baseline.ndjson"
    write_trace_file(gen_baseline(ScenarioConfig(seed=7, duration_s=960.0)), trace)
    model = tmp_path / "model.json"
    # every training flag away from its default, so each must reach the bundle
    assert cli_main([
        "train", "--trace", str(trace), "--model-out", str(model),
        "--learning-rate", "0.001", "--beta1", "0.8", "--beta2", "0.99",
        "--adam-epsilon", "1e-7", "--epochs", "10", "--batch-size", "8",
        "--kl-weight", "0.5", "--accumulation-target", "32", "--seed", "3",
        "--hidden-units", "8,8", "--latent-dim", "4", "--k", "2.5",
    ]) == 0
    assert sha256(model.read_bytes()) == (
        "c600d3086303566459267043d4feaa51bc5c5024e4a80579763199bff0b661d4"
    )


# 41 rows: batch 7 leaves a tail batch of 6, batch 1 steps row by row,
# batch 64 is one batch larger than the data; kl_weight 0 drops the KL path
@pytest.mark.parametrize(
    ("batch_size", "kl_weight", "digest"),
    [
        (7, 1.0, "490f550cc47219dd6e18f427fb3f1a13900a4bceb5eb38a7020e85478c4d8b94"),
        (1, 1.0, "b41e3a46bb0b7920416fb2959ed40ad7b6340f6aaf4f7b428ff4039da2a5a38f"),
        (64, 1.0, "6e5eac2780facfa10848114cf7d3630644b51fcb59b8ed399f4e03c4471fdbd7"),
        (7, 0.0, "38df9b3b2a2e02183639213bb3b113785341dcb25b4f807ddf1f18396aa62072"),
    ],
)
def test_train_weights_and_curves_golden(batch_size, kl_weight, digest):
    """The trained weights' bytes and both per-epoch curves, default
    architecture, for batch shapes the bundle goldens do not reach."""
    data = np.random.default_rng(4).uniform(0.0, 1.0, size=(41, FEATURE_DIM))
    config = TrainConfig(
        learning_rate=1e-3, epochs=6, batch_size=batch_size, kl_weight=kl_weight,
        accumulation_target=41, seed=9,
    )
    params, curve = train(data, VaeArchitecture(input_dim=FEATURE_DIM), config)
    pinned = param_buffer(params).tobytes()
    pinned += repr((curve.recon_per_epoch, curve.kl_per_epoch)).encode()
    assert sha256(pinned) == digest


def test_default_train_bundle_golden(tmp_path):
    """The README quickstart bundle: every training flag at its default,
    the architecture and config online training uses."""
    trace = tmp_path / "baseline.ndjson"
    model = tmp_path / "web-0.model.json"
    assert cli_main([
        "simulate", "--scenario", "baseline", "--duration", "3600", "--seed", "7",
        "--out", str(trace),
    ]) == 0
    assert cli_main(["train", "--trace", str(trace), "--model-out", str(model)]) == 0
    assert sha256(model.read_bytes()) == (
        "4a1fc26d5dc25832352189ff09fd95804759001f491df266558ffb77f8e2e599"
    )


def test_file_sink_golden(tmp_path, cpuminer_rows):
    modes = publish_stream(cpuminer_rows, lambda name: FileSink(tmp_path / f"{name}.ndjson"))
    assert [modes.count(m) for m in ("accumulating", "latent", "latent_forensics")] == [20, 5, 5]
    assert sha256((tmp_path / "adaptive.ndjson").read_bytes()) == (
        "d31d14558e0d3fa602270f6476c4d32c02ff1e7626d940bd9c71bb20dd8b3d0a"
    )
    assert sha256((tmp_path / "standard.ndjson").read_bytes()) == (
        "8fe82356785f469618c27ec706688df0268307fa46dff63a86414bb9b5aaafb9"
    )


class _Response:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return b'{"errors":false}'


def test_bulk_request_golden(monkeypatch, cpuminer_rows):
    posted = []

    def fake_urlopen(request, timeout=None):
        posted.append((request.full_url, request.data))
        return _Response()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    publish_stream(
        cpuminer_rows,
        lambda name: HttpBulkSink(f"http://bulk.invalid/{name}", batch_size=100),
        latent_index="lat",
        forensics_index="raw",
    )
    assert {url for url, _ in posted} == {
        "http://bulk.invalid/adaptive/_bulk",
        "http://bulk.invalid/standard/_bulk",
    }
    digest = hashlib.sha256()
    for url, body in posted:
        digest.update(url.encode() + b"\0" + body)
    assert (len(posted), digest.hexdigest()) == (
        1187,
        "ef6539d5df4395fe44e8d963b57fd47667a3d529e0c3cd0082d95a6b48d59e5d",
    )


def test_assess_and_bench_golden(tmp_path):
    """A small bundle trained from the command line, then loaded by
    `assess` and `bench`: pins the detector those commands rebuild."""
    baseline = tmp_path / "baseline.ndjson"
    write_trace_file(gen_baseline(ScenarioConfig(seed=7, duration_s=960.0)), baseline)
    model = tmp_path / "model.json"
    assert cli_main([
        "train", "--trace", str(baseline), "--model-out", str(model),
        "--epochs", "10", "--batch-size", "8", "--accumulation-target", "32",
        "--hidden-units", "8,8", "--latent-dim", "4", "--seed", "2", "--interval-len", "10",
    ]) == 0
    trace = tmp_path / "cpuminer.ndjson"
    write_trace_file(
        gen_cpuminer_scenario(ScenarioConfig(seed=5, duration_s=300.0, phase_schedule=_SCHEDULE)),
        trace,
    )
    verdicts = tmp_path / "verdicts.ndjson"
    assert cli_main([
        "assess", "--trace", str(trace), "--model", str(model), "--out", str(verdicts),
        "--interval-len", "10",
    ]) == 0
    assert cli_main([
        "bench", "--trace", str(trace), "--model", str(model),
        "--out-dir", str(tmp_path / "sinks"), "--interval-len", "10",
    ]) == 0
    sinks = tmp_path / "sinks"
    digests = [
        sha256(path.read_bytes())
        for path in (verdicts, sinks / "adaptive.ndjson", sinks / "standard.ndjson")
    ]
    assert digests == [
        "d5ee2073e09ddce921185e3d2e378dafa5363c6cb5e160730074f4dcd4cc4778",
        "2e5cd647286c5e7a835dafa51803cdabb3615a5ad528d5f0f0898019493e45c9",
        "8fe82356785f469618c27ec706688df0268307fa46dff63a86414bb9b5aaafb9",
    ]
