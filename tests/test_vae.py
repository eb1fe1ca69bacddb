import copy
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BUNDLE_CORRUPTIONS, corrupt_bundle, small_detector
from vaeguard import nn
from vaeguard.errors import (
    CorruptModelFile,
    InsufficientData,
    NotFittedError,
    SchemaMismatch,
)
from vaeguard.nn import VaeArchitecture
from vaeguard.summarize import FEATURE_DIM, ActivityVector, IntervalKey
from vaeguard.thresholds import KSigmaThreshold
from vaeguard.vae import TrainConfig, load_model, save_model, train


def toy_matrix(n=40, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, dim))


TOY_CONFIG = TrainConfig(epochs=10, batch_size=8, accumulation_target=20, seed=1)
TOY_ARCH = VaeArchitecture(input_dim=6, hidden_units=(5, 4), latent_dim=2)


def test_train_is_deterministic():
    X = toy_matrix()
    params_a, curve_a = train(X, TOY_ARCH, TOY_CONFIG)
    params_b, curve_b = train(X, TOY_ARCH, TOY_CONFIG)
    for key in params_a:
        np.testing.assert_array_equal(params_a[key], params_b[key])
    assert curve_a.recon_per_epoch == curve_b.recon_per_epoch
    assert curve_a.error_mean == curve_b.error_mean


def test_train_curve_shape_and_stats():
    X = toy_matrix()
    _, curve = train(X, TOY_ARCH, TOY_CONFIG)
    assert len(curve.recon_per_epoch) == TOY_CONFIG.epochs
    assert len(curve.kl_per_epoch) == TOY_CONFIG.epochs
    assert curve.settled_error == curve.recon_per_epoch[-1]
    assert curve.error_mean >= 0 and curve.error_sd >= 0
    assert all(math.isfinite(v) and v >= 0 for v in curve.recon_per_epoch)
    assert all(math.isfinite(v) and v >= 0 for v in curve.kl_per_epoch)


def test_train_runs_one_forward_pass_per_step(monkeypatch):
    calls = []
    real_forward = nn._forward
    monkeypatch.setattr(nn, "_forward", lambda *a: calls.append(1) or real_forward(*a))
    X = toy_matrix(n=41)
    train(X, TOY_ARCH, TOY_CONFIG)
    assert len(calls) == TOY_CONFIG.epochs * math.ceil(41 / TOY_CONFIG.batch_size)


def test_train_rejects_insufficient_data():
    X = toy_matrix(n=119, dim=4)
    arch = VaeArchitecture(input_dim=4, hidden_units=(4,), latent_dim=2)
    with pytest.raises(InsufficientData) as excinfo:
        train(X, arch, TrainConfig(accumulation_target=120, epochs=1))
    assert excinfo.value.actual == 119
    assert excinfo.value.required == 120
    assert "119" in str(excinfo.value) and "120" in str(excinfo.value)


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3", None])
def test_train_config_rejects_a_seed_that_is_not_an_integer_from_0(seed):
    # rejected here, not at the first training, which may come much later
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=seed)
    assert TrainConfig(seed=np.int64(2**40)).seed == 2**40


def test_training_reduces_reconstruction_error(small_baseline_summaries):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    detector = small_detector().fit(X)
    curve = detector.curve_
    assert curve.recon_per_epoch[-1] <= curve.recon_per_epoch[0]


# -- estimator surface --------------------------------------------------------


def test_fit_returns_self_and_sets_attributes():
    detector = small_detector(accumulation_target=20, epochs=5)
    X = toy_matrix(n=20)
    assert detector.fit(X) is detector
    assert detector.n_features_in_ == 6
    assert detector.scaler_ is not None
    assert detector.threshold_ > 0
    assert isinstance(detector.threshold_policy_, KSigmaThreshold)


def test_unfitted_detector_raises():
    with pytest.raises(NotFittedError):
        small_detector().score_samples(toy_matrix(n=2))


def test_score_samples_deterministic_and_nonnegative(small_trained_detector, small_baseline_summaries):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    errors_a = small_trained_detector.score_samples(X)
    errors_b = small_trained_detector.score_samples(X)
    np.testing.assert_array_equal(errors_a, errors_b)
    assert (errors_a >= 0).all()


def test_training_members_score_near_settled_error(small_trained_detector, small_baseline_summaries):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    errors = small_trained_detector.score_samples(X)
    assert (errors <= 10.0 * small_trained_detector.curve_.error_mean).all()


def test_zero_vector_is_unstable_against_traffic_model(small_trained_detector):
    key = IntervalKey("web-0", 999, 30.0)
    zero = ActivityVector(key=key, features=np.zeros(FEATURE_DIM))
    record = small_trained_detector.score_vector(zero)
    assert record.recon_error > small_trained_detector.threshold_


def test_predict_outlier_convention(small_trained_detector, small_baseline_summaries):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    verdicts = small_trained_detector.predict(X)
    assert set(np.unique(verdicts)) <= {-1, 1}
    assert (verdicts == 1).mean() >= 0.9
    spike = X.copy()[:1] * 1000.0
    assert small_trained_detector.predict(spike)[0] == -1


def test_transform_returns_latent_means(small_trained_detector):
    X = toy_matrix(n=3, dim=FEATURE_DIM, seed=5)
    latent = small_trained_detector.transform(X)
    assert latent.shape == (3, small_trained_detector.latent_dim)
    mu, logvar = small_trained_detector.encode(X)
    np.testing.assert_array_equal(latent, mu)
    assert logvar.shape == (3, small_trained_detector.latent_dim)


def test_score_vector_round_trip(small_trained_detector, small_baseline_summaries):
    _, _, vector = small_baseline_summaries[0]
    record = small_trained_detector.score_vector(vector)
    assert record.key == vector.key
    assert record.mu.shape == (small_trained_detector.latent_dim,)
    again = small_trained_detector.score_vector(vector)
    assert record.recon_error == again.recon_error
    np.testing.assert_array_equal(record.mu, again.mu)


def test_score_vector_schema_checks(small_trained_detector):
    too_wide = SimpleNamespace(
        key=IntervalKey("web-0", 0, 30.0), features=np.zeros(FEATURE_DIM + 1)
    )
    with pytest.raises(SchemaMismatch):
        small_trained_detector.score_vector(too_wide)
    with pytest.raises(SchemaMismatch):
        small_trained_detector.score_samples(np.zeros((1, FEATURE_DIM + 1)))


def test_set_threshold_k_rederives_policy(small_trained_detector):
    detector = small_trained_detector
    t3 = detector.threshold_
    detector.set_threshold_k(5.0)
    t5 = detector.threshold_
    detector.set_threshold_k(3.0)
    assert t5 > t3
    assert detector.threshold_ == t3


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip_is_bit_identical(tmp_path, small_trained_detector):
    X = toy_matrix(n=5, dim=FEATURE_DIM, seed=9) * 100
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(
        small_trained_detector.score_samples(X), loaded.score_samples(X)
    )
    for key in small_trained_detector.weights_:
        np.testing.assert_array_equal(
            small_trained_detector.weights_[key], loaded.weights_[key]
        )
    assert loaded.threshold_ == small_trained_detector.threshold_
    assert loaded.container_id == small_trained_detector.container_id


def test_save_twice_is_byte_identical(tmp_path, small_trained_detector):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_model(small_trained_detector, a)
    save_model(small_trained_detector, b)
    assert a.read_bytes() == b.read_bytes()


def test_truncated_bundle_is_corrupt(tmp_path, small_trained_detector):
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(CorruptModelFile):
        load_model(path)


def test_wrong_format_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(CorruptModelFile):
        load_model(path)


def test_missing_file_is_corrupt(tmp_path):
    with pytest.raises(CorruptModelFile):
        load_model(tmp_path / "nope.json")


def test_dimension_mismatch_on_load(tmp_path, small_trained_detector):
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    with pytest.raises(SchemaMismatch):
        load_model(path, expected_dim=FEATURE_DIM + 1)
    assert load_model(path, expected_dim=FEATURE_DIM) is not None


def test_schema_version_mismatch_on_load(tmp_path, small_trained_detector):
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    bundle = json.loads(path.read_text(encoding="utf-8"))
    bundle["schema_version"] = 99
    path.write_text(json.dumps(bundle), encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_heuristic_policy_round_trip(tmp_path, small_trained_detector):
    from vaeguard.thresholds import HeuristicThreshold

    path = tmp_path / "model.json"
    original_policy = small_trained_detector.threshold_policy_
    try:
        small_trained_detector.threshold_policy_ = HeuristicThreshold(0.5)
        save_model(small_trained_detector, path)
    finally:
        small_trained_detector.threshold_policy_ = original_policy
    loaded = load_model(path)
    assert isinstance(loaded.threshold_policy_, HeuristicThreshold)
    assert loaded.threshold_ == 0.5


def test_tampered_weights_are_corrupt(tmp_path, small_trained_detector):
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    bundle = json.loads(path.read_text(encoding="utf-8"))
    bundle["weights"]["enc0_w"]["data"] = [1.0, 2.0]
    path.write_text(json.dumps(bundle), encoding="utf-8")
    with pytest.raises(CorruptModelFile):
        load_model(path)


@pytest.mark.parametrize("corruption", sorted(BUNDLE_CORRUPTIONS))
def test_corrupt_bundle_rejected_at_load(tmp_path, small_trained_detector, corruption):
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    corrupt_bundle(path, path, corruption)
    with pytest.raises(CorruptModelFile):
        load_model(path)


def test_loaded_weights_are_views_into_one_buffer(tmp_path, small_trained_detector):
    from vaeguard.nn import param_buffer

    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    weights = load_model(path).weights_
    assert param_buffer(weights).size == sum(value.size for value in weights.values())


# -- mutated bundles -------------------------------------------------------------

_HOSTILE_VALUES = (
    None, True, 0, -1, 1.5, 10**400, float("nan"), float("inf"), float("-inf"),
    "", "x", [], {}, [1.0], {"k": 1},
)


def _paths(node, prefix=()):
    """Paths to the nodes of a parsed bundle; of a list, only its ends."""
    yield prefix
    if isinstance(node, dict):
        for name, child in node.items():
            yield from _paths(child, prefix + (name,))
    elif isinstance(node, list) and node:
        for index in sorted({0, len(node) - 1}):
            yield from _paths(node[index], prefix + (index,))


@st.composite
def _mutated_bundles(draw, bundle):
    bundle = copy.deepcopy(bundle)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(bundle))))
        parent, node = None, bundle
        for step in path:
            parent, node = node, node[step]
        kind = draw(st.sampled_from(["drop", "replace", "wrap", "append", "truncate"]))
        if kind == "drop" and parent is not None:
            del parent[path[-1]]
        elif kind == "replace" and parent is not None:
            parent[path[-1]] = draw(st.sampled_from(_HOSTILE_VALUES))
        elif kind == "wrap" and parent is not None:
            parent[path[-1]] = [node]
        elif kind == "append" and isinstance(node, list):
            node.append(draw(st.sampled_from(_HOSTILE_VALUES)))
        elif kind == "truncate" and isinstance(node, list):
            del node[len(node) // 2 :]
    return bundle


@pytest.fixture(scope="module")
def saved_bundle(tmp_path_factory, small_trained_detector):
    path = tmp_path_factory.mktemp("mutations") / "model.json"
    save_model(small_trained_detector, path)
    return path, json.loads(path.read_text(encoding="utf-8"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_bundle_loads_or_is_rejected_as_corrupt(saved_bundle, data):
    """Whatever is dropped, retyped, reshaped or made non-finite, loading
    either fails with CorruptModelFile or SchemaMismatch, or gives a
    detector that scores."""
    path, bundle = saved_bundle
    mutated = data.draw(_mutated_bundles(bundle))
    target = path.with_name("mutated.json")
    target.write_text(json.dumps(mutated), encoding="utf-8")
    try:
        detector = load_model(target)
    except (CorruptModelFile, SchemaMismatch):
        return
    detector.score_samples(np.zeros((1, detector.n_features_in_)))
