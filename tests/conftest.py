from __future__ import annotations

import http.server
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from vaeguard import nn
from vaeguard.pipeline import summarize_trace
from vaeguard.scenarios import ScenarioConfig, gen_baseline
from vaeguard.summarize import vectors_to_matrix
from vaeguard.vae import TrainConfig, VaeStabilityDetector


def elbo_terms(arch, params, x, eps, kl_weight=1.0):
    """Loss terms for a fixed noise draw: (loss, recon_term, kl_term).

    loss = recon + kl_weight * kl, averaged over the batch. Minimizing it
    maximizes the evidence lower bound with MSE standing in for the
    negative reconstruction log-likelihood.
    """
    batch, _ = nn._as_batch(x, arch.input_dim, "x")
    noise, _ = nn._as_batch(eps, arch.latent_dim, "eps")
    work = nn._forward(arch, params, batch, noise)
    recon_term = float(np.mean(nn.reconstruction_error(batch, work.recon)))
    kl_term = float(np.mean(nn.kl_divergence(work.mu, work.logvar)))
    return recon_term + kl_weight * kl_term, recon_term, kl_term


def finite_difference_gradients(arch, params, x, eps, kl_weight, h=1e-5):
    """Central-difference oracle; independent of the backprop code path."""
    grads = {}
    for key, value in params.items():
        grad = np.zeros_like(value)
        flat = value.ravel()
        grad_flat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus, _, _ = elbo_terms(arch, params, x, eps, kl_weight)
            flat[i] = original - h
            minus, _, _ = elbo_terms(arch, params, x, eps, kl_weight)
            flat[i] = original
            grad_flat[i] = (plus - minus) / (2 * h)
        grads[key] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for key in analytic:
        a = analytic[key].ravel()
        n = numeric[key].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _transpose(entry):
    rows, cols = entry["shape"]
    entry["data"] = np.array(entry["data"]).reshape(rows, cols).T.ravel().tolist()
    entry["shape"] = [cols, rows]


def _set_first(values, value):
    values[0] = value


def _convert(container, key, convert):
    container[key] = convert(container[key])


# in-place edits of a parsed model bundle, each of which must make it corrupt
BUNDLE_CORRUPTIONS = {
    "transposed-dec0_w": lambda b: _transpose(b["weights"]["dec0_w"]),
    "nan-out_b": lambda b: _set_first(b["weights"]["out_b"]["data"], float("nan")),
    "inf-enc0_w": lambda b: _set_first(b["weights"]["enc0_w"]["data"], float("inf")),
    "nan-scaler-min": lambda b: _set_first(b["scaler"]["min"], float("nan")),
    "inf-scaler-max": lambda b: _set_first(b["scaler"]["max"], float("-inf")),
    "short-scaler-min": lambda b: b["scaler"]["min"].pop(),
    "unknown-architecture-key": lambda b: b["architecture"].update(depth=3),
    "zero-width-hidden-layer": lambda b: _set_first(b["architecture"]["hidden_units"], 0),
    # values that int() would take as a width or dimension
    "fractional-hidden-width": lambda b: _convert(b["architecture"]["hidden_units"], 0, lambda w: w + 0.5),
    "string-hidden-width": lambda b: _convert(b["architecture"]["hidden_units"], 0, str),
    "bool-hidden-width": lambda b: _set_first(b["architecture"]["hidden_units"], True),
    "float-latent-dim": lambda b: _convert(b["architecture"], "latent_dim", float),
    "float-input-dim": lambda b: _convert(b["architecture"], "input_dim", float),
    "string-curve-error-mean": lambda b: b["curve"].update(error_mean="0.5"),
    "negative-seed": lambda b: b["train_config"].update(seed=-1),
    "fractional-batch-size": lambda b: b["train_config"].update(batch_size=2.5),
}


def corrupt_bundle(source, target, name):
    """Write `source` to `target` with the named edit applied."""
    bundle = json.loads(Path(source).read_text(encoding="utf-8"))
    BUNDLE_CORRUPTIONS[name](bundle)
    Path(target).write_text(json.dumps(bundle), encoding="utf-8")


def small_detector(**overrides) -> VaeStabilityDetector:
    """Reduced architecture and schedule for fast unit tests; `overrides`
    are TrainConfig fields."""
    params = dict(
        epochs=25,
        accumulation_target=32,
        batch_size=8,
        seed=0,
    )
    params.update(overrides)
    return VaeStabilityDetector(TrainConfig(**params), hidden_units=(8, 8), latent_dim=4)


def fit_recording_factory(fitted: list, **overrides):
    """A detector_factory of `small_detector(**overrides)` whose detectors
    append themselves to `fitted` each time their fit() runs."""

    def factory():
        detector = small_detector(**overrides)
        fit = detector.fit

        def recorded_fit(X):
            fitted.append(detector)
            return fit(X)

        detector.fit = recorded_fit
        return detector

    return factory


@pytest.fixture(scope="session")
def small_baseline_summaries():
    """32 intervals of baseline traffic (16 simulated minutes)."""
    events = gen_baseline(ScenarioConfig(seed=7, duration_s=960.0))
    return summarize_trace(events, 30.0)["web-0"]


@pytest.fixture(scope="session")
def small_trained_detector(small_baseline_summaries):
    X = vectors_to_matrix([vector for _, _, vector in small_baseline_summaries])
    return small_detector().fit(X)


class _BulkRecorder(http.server.BaseHTTPRequestHandler):
    """Records each POST as (path, headers, body) and answers it as a bulk
    endpoint that indexed every document."""

    requests: list[tuple[str, dict, bytes]] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        _BulkRecorder.requests.append((self.path, dict(self.headers), body))
        self.send_response(200)
        payload = b'{"errors":false}'
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def bulk_server():
    """A loopback bulk endpoint: yields its URL and the list of requests it
    has received."""
    _BulkRecorder.requests = []
    server = http.server.HTTPServer(("127.0.0.1", 0), _BulkRecorder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _BulkRecorder.requests
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
