from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from vaeguard.nn import elbo_terms
from vaeguard.pipeline import summarize_trace
from vaeguard.scenarios import ScenarioConfig, gen_baseline
from vaeguard.summarize import vectors_to_matrix
from vaeguard.vae import TrainConfig, VaeStabilityDetector


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
    "string-curve-error-mean": lambda b: b["curve"].update(error_mean="0.5"),
    "negative-seed": lambda b: b["train_config"].update(seed=-1),
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
