import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BUNDLE_CORRUPTIONS, corrupt_bundle, small_detector
from vaeguard import nn
from vaeguard.errors import (
    CorruptModelFile,
    DimensionMismatch,
    InsufficientData,
    NonFiniteInput,
    NotFittedError,
    SchemaMismatch,
)
from vaeguard.nn import VaeArchitecture
from vaeguard.summarize import FEATURE_DIM
from vaeguard.thresholds import HeuristicThreshold, KSigmaThreshold
from vaeguard.vae import TrainConfig, VaeStabilityDetector, load_model, save_model, train


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


def test_train_calls_gradients_and_adam_through_the_module_once_per_step(monkeypatch):
    """Each step goes through nn.elbo_gradients and nn.adam_step as module
    attributes, so a wrapper installed there sees every step."""
    calls = []
    for name in ("elbo_gradients", "adam_step"):
        real = getattr(nn, name)
        monkeypatch.setattr(
            nn, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k)
        )
    X = toy_matrix(n=41)
    train(X, TOY_ARCH, TOY_CONFIG)
    steps = TOY_CONFIG.epochs * math.ceil(41 / TOY_CONFIG.batch_size)
    assert calls == ["elbo_gradients", "adam_step"] * steps


def test_a_training_step_past_the_first_epoch_allocates_less_than_one_batch(monkeypatch):
    """From the second epoch on, every step replays its workspace's recordings:
    at its peak, a step allocates less than one batch of inputs, since only
    the per-row errors it returns are new."""
    config = TrainConfig(epochs=3, batch_size=16, accumulation_target=20)
    X = toy_matrix(n=40, dim=FEATURE_DIM)  # two full batches and a tail of 8
    peaks = []
    for name in ("elbo_gradients", "adam_step"):

        def measured(*args, _real=getattr(nn, name)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = _real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(nn, name, measured)
    tracemalloc.start()
    try:
        train(X, VaeArchitecture(FEATURE_DIM), config)
    finally:
        tracemalloc.stop()
    calls_per_epoch = 2 * 3  # elbo_gradients, then adam_step, per step
    later = peaks[calls_per_epoch:]
    assert len(later) == calls_per_epoch * (config.epochs - 1)
    assert max(later) < config.batch_size * FEATURE_DIM * 8


def test_batches_of_a_row_count_share_a_workspace_and_later_steps_replay(monkeypatch):
    """The two full batches share one workspace and the tail its own. A
    workspace records its passes at its first batch, and every later batch
    replays them, the second of the first epoch included."""
    config = TrainConfig(epochs=3, batch_size=16, accumulation_target=20)
    X = toy_matrix(n=40, dim=4)  # two full batches and a tail of 8
    rows, steps, recorded = [], [], []
    real_workspace, real_step, real_recording = nn.Workspace, nn.adam_step, nn._Recording
    monkeypatch.setattr(
        nn,
        "Workspace",
        lambda arch, params, n, *a: rows.append(n) or real_workspace(arch, params, n, *a),
    )
    monkeypatch.setattr(nn, "adam_step", lambda *a: steps.append(1) or real_step(*a))
    monkeypatch.setattr(
        nn, "_Recording", lambda operands: recorded.append(len(steps)) or real_recording(operands)
    )
    train(X, VaeArchitecture(4, (4,), 2), config)
    assert rows == [16, 8]
    assert len(steps) == 3 * config.epochs
    # the full batches' workspace records its forward and gradient passes
    # at the first step, Adam its step there, and the tail's workspace its
    # passes at the third step; nothing else records
    assert recorded == [0, 0, 1, 2, 2]


def test_recorded_calls_are_numpy_implementations_not_dispatchers(
    small_trained_detector, oracle_vectors
):
    """A recording keeps the C function under numpy's __array_function__
    dispatcher (its __wrapped__), and np.matmul only for a pass given a
    caller's array that is not C-contiguous."""
    arch = VaeArchitecture(input_dim=7, hidden_units=(6, 6, 5), latent_dim=3)
    rng = np.random.default_rng(21)
    params = nn.init_params(arch, rng)
    grads = nn.param_views(arch)
    work = nn.Workspace(arch, params, 6, grads)
    work.input[...] = rng.uniform(-0.5, 1.5, size=work.input.shape)
    rng.standard_normal(out=work.eps)
    nn.elbo_gradients(arch, params, work.input, work.eps, 1.0, grads, work)
    flat = nn.param_buffer(params)
    state = nn.adam_init(flat)
    nn.adam_step(flat, nn.param_buffer(grads), state, TrainConfig(), 1)
    for vector in oracle_vectors[:2]:
        small_trained_detector.score_vector(vector)
    owners = (work, state, small_trained_detector._work)
    recordings = [recording for owner in owners for recording in owner.recordings.values()]
    assert len(recordings) == 4  # forward, gradients, step, score
    functions = [call.func for recording in recordings for call in recording.calls]
    assert [fn for fn in functions if hasattr(fn, "__wrapped__")] == []
    assert np.matmul not in functions
    assert np.dot.__wrapped__ in functions and np.copyto.__wrapped__ in functions

    # a column-strided input: the first encoder product and the first
    # encoder layer's weight gradient take it as it is, through np.matmul
    strided = rng.uniform(-0.5, 1.5, size=(6, 14))[:, ::2]
    nn.elbo_gradients(arch, params, strided, work.eps, 1.0, grads, work)
    matmuls = [
        [call.func for call in work.recordings[name].calls].count(np.matmul)
        for name in ("forward", "gradients")
    ]
    assert matmuls == [1, 1]


def test_detectors_trained_in_turn_write_the_bundles_each_writes_alone(tmp_path):
    """A recording belongs to one workspace: training and scoring one
    detector between two trainings of another, of the same shapes, changes
    no byte of either one's bundle."""
    data = {"a": toy_matrix(n=41), "b": toy_matrix(n=41, seed=1) * 3.0}
    bundles = []
    for turn, name in enumerate("abab"):
        detector = small_detector(epochs=5, accumulation_target=20).fit(data[name])
        detector.score_vector(data[name][turn])
        path = tmp_path / f"{turn}-{name}.json"
        save_model(detector, path)
        bundles.append(path.read_bytes())
    assert bundles[0] == bundles[2]
    assert bundles[1] == bundles[3]
    assert bundles[0] != bundles[1]


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


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None, 0])
@pytest.mark.parametrize("field", ["epochs", "batch_size", "accumulation_target"])
def test_train_config_rejects_a_count_that_is_not_a_positive_integer(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    count = getattr(TrainConfig(**{field: np.int64(3)}), field)
    assert count == 3 and type(count) is int


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
    assert detector.architecture_.input_dim == 6
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
    assert errors_a.flags.owndata  # not a view that keeps a workspace alive


def test_training_members_score_near_settled_error(small_trained_detector, small_baseline_summaries):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    errors = small_trained_detector.score_samples(X)
    assert (errors <= 10.0 * small_trained_detector.curve_.error_mean).all()


def test_zero_vector_is_unstable_against_traffic_model(small_trained_detector):
    record = small_trained_detector.score_vector(np.zeros(FEATURE_DIM))
    assert record.recon_error > small_trained_detector.threshold_


def test_predict_outlier_convention(small_trained_detector, small_baseline_summaries):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    verdicts = small_trained_detector.predict(X)
    assert set(np.unique(verdicts)) <= {-1, 1}
    assert (verdicts == 1).mean() >= 0.9
    spike = X.copy()[:1] * 1000.0
    assert small_trained_detector.predict(spike)[0] == -1


def test_score_vector_round_trip(small_trained_detector, small_baseline_summaries):
    _, _, features = small_baseline_summaries[0]
    record = small_trained_detector.score_vector(features)
    assert record.mu.shape == (small_trained_detector.latent_dim,)
    again = small_trained_detector.score_vector(features)
    assert record.recon_error == again.recon_error
    np.testing.assert_array_equal(record.mu, again.mu)


def test_batch_scores_equal_single_scores_bitwise_for_one_row_and_closely_for_many(
    small_trained_detector, small_baseline_summaries
):
    """A one-row score_samples makes score_vector's calls over the same
    values; over many rows, a product may sum in another order, so the
    two can differ in the last bits."""
    from vaeguard.summarize import vectors_to_matrix

    detector = small_trained_detector
    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    single = [detector.score_vector(row).recon_error for row in X]
    for row, error in zip(X, single):
        assert detector.score_samples(row[None]).tobytes() == np.float64(error).tobytes()
    batch = detector.score_samples(X)
    assert len(batch) == len(single)
    for error_of_batch, error in zip(batch.tolist(), single):
        assert math.isclose(error_of_batch, error, rel_tol=1e-12)


def test_score_vector_schema_checks(small_trained_detector):
    with pytest.raises(SchemaMismatch):
        small_trained_detector.score_vector(np.zeros(FEATURE_DIM + 1))
    with pytest.raises(SchemaMismatch):
        small_trained_detector.score_samples(np.zeros((1, FEATURE_DIM + 1)))


@pytest.mark.parametrize(
    "features, error, message",
    [
        (np.zeros(FEATURE_DIM + 1), SchemaMismatch,
         f"input has {FEATURE_DIM + 1} features, model expects {FEATURE_DIM}"),
        (np.zeros(FEATURE_DIM - 1), SchemaMismatch,
         f"input has {FEATURE_DIM - 1} features, model expects {FEATURE_DIM}"),
        (np.full(FEATURE_DIM, np.nan), NonFiniteInput, "encoder input contains NaN or infinity"),
        (np.full(FEATURE_DIM, np.inf), NonFiniteInput, "encoder input contains NaN or infinity"),
    ],
    ids=["too-wide", "too-narrow", "nan", "inf"],
)
def test_score_vector_rejects_a_bad_vector_with_its_documented_error(
    small_trained_detector, features, error, message
):
    with pytest.raises(error) as raised:
        small_trained_detector.score_vector(features)
    assert str(raised.value) == message
    # the detector still scores a good vector afterwards
    assert small_trained_detector.score_vector(np.zeros(FEATURE_DIM)).recon_error >= 0.0


def test_score_vector_before_fit_is_not_fitted():
    with pytest.raises(NotFittedError) as raised:
        small_detector().score_vector(np.zeros(FEATURE_DIM))
    assert str(raised.value) == "VaeStabilityDetector is not fitted; call fit() first"


def test_score_vector_takes_one_vector_or_a_one_row_matrix_only(
    small_trained_detector, oracle_vectors
):
    detector = small_trained_detector
    vector = oracle_vectors[0]
    record = detector.score_vector(vector)
    row = detector.score_vector(vector.reshape(1, FEATURE_DIM))
    assert row.mu.tobytes() == record.mu.tobytes() and row.recon_error == record.recon_error
    work = detector._work
    with pytest.raises(DimensionMismatch) as raised:
        detector.score_vector(np.zeros((2, FEATURE_DIM)))
    assert str(raised.value) == f"expected one activity vector, got shape (2, {FEATURE_DIM})"
    assert raised.value.exit_code == 4
    assert detector._work is work  # refused before the one-row workspace is touched
    assert detector.score_vector(vector).mu.tobytes() == record.mu.tobytes()


# -- single-vector scoring against the allocating chain ------------------------

# 10 s intervals: 18 quiet, then two per attack phase
_ORACLE_SCHEDULE = (
    (0.0, 180.0, "normal"),
    (180.0, 200.0, "shell_connect"),
    (200.0, 220.0, "shell_commands"),
    (220.0, 240.0, "package_download"),
    (240.0, 260.0, "compile"),
    (260.0, 280.0, "miner_execution"),
)


@pytest.fixture(scope="module")
def oracle_vectors(small_baseline_summaries, small_trained_detector):
    """Baseline and cpuminer vectors, and one that sets a feature which never
    varied in training and holds a 1e12 anomaly."""
    from vaeguard.pipeline import summarize_trace
    from vaeguard.scenarios import ScenarioConfig, gen_cpuminer_scenario

    events = gen_cpuminer_scenario(
        ScenarioConfig(seed=5, duration_s=280.0, phase_schedule=_ORACLE_SCHEDULE)
    )
    vectors = [v for _, _, v in small_baseline_summaries]
    vectors += [v for _, _, v in summarize_trace(events, 10.0)["web-0"]]
    scaler = small_trained_detector.scaler_
    degenerate = np.flatnonzero(scaler.data_max_ == scaler.data_min_)
    varied = np.flatnonzero(scaler.data_max_ > scaler.data_min_)
    assert degenerate.size and varied.size
    features = vectors[0].copy()
    features[degenerate[0]] += 7.0
    features[varied[0]] = 1e12
    vectors.append(features)
    return vectors


def allocating_score(detector, vector):
    """The chain score_vector stands for, each step allocating its result."""
    arch, weights = detector.architecture_, detector.weights_
    normalized = detector.scaler_.transform(vector.reshape(1, -1))[0]
    mu, logvar = nn.encode(arch, weights, normalized)
    recon = nn.decode(arch, weights, mu)
    error = nn.reconstruction_error(normalized, recon)
    assert np.float64(error).tobytes() == np.mean(np.square(normalized - recon)).tobytes()
    return mu, logvar, error


def assert_scores_like_the_chain(detector, vector):
    record = detector.score_vector(vector)
    mu, logvar, error = allocating_score(detector, vector)
    assert record.mu.tobytes() == mu.tobytes()
    assert record.logvar.tobytes() == logvar.tobytes()
    assert np.float64(record.recon_error).tobytes() == np.float64(error).tobytes()
    assert type(record.recon_error) is float
    return record


@pytest.mark.parametrize("architecture", ["small", "default"])
def test_score_vector_equals_the_allocating_chain_bit_for_bit(
    architecture, small_trained_detector, small_baseline_summaries, oracle_vectors
):
    from vaeguard.summarize import vectors_to_matrix

    detector = small_trained_detector
    if architecture == "default":
        X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
        detector = VaeStabilityDetector(
            TrainConfig(epochs=3, batch_size=8, accumulation_target=32)
        ).fit(X)
    for vector in oracle_vectors:
        assert_scores_like_the_chain(detector, vector)
    assert detector.score_vector(oracle_vectors[-1]).recon_error > 1e12


def test_consecutive_latent_records_share_no_memory(small_trained_detector, oracle_vectors):
    first = small_trained_detector.score_vector(oracle_vectors[0])
    kept = first.mu.tobytes(), first.logvar.tobytes()
    second = small_trained_detector.score_vector(oracle_vectors[-1])
    for a in (first.mu, first.logvar):
        for b in (second.mu, second.logvar):
            assert not np.shares_memory(a, b)
    assert (first.mu.tobytes(), first.logvar.tobytes()) == kept


def test_refit_and_alternating_detectors_score_with_their_own_weights(
    small_baseline_summaries, oracle_vectors
):
    from vaeguard.summarize import vectors_to_matrix

    X = vectors_to_matrix([v for _, _, v in small_baseline_summaries])
    first = small_detector().fit(X)
    second = small_detector(seed=4).fit(X[::-1] * 1.5)
    for i, vector in enumerate(oracle_vectors):
        # alternate, so each detector scores right after the other one did
        for detector in (first, second)[:: 1 if i % 2 else -1]:
            assert_scores_like_the_chain(detector, vector)
    before = first.score_vector(oracle_vectors[0])
    old_weights = first.weights_
    first.fit(X * 2.0)  # new weights and new scaler bounds
    assert first.weights_ is not old_weights
    after = assert_scores_like_the_chain(first, oracle_vectors[0])
    assert after.mu.tobytes() != before.mu.tobytes()


@pytest.mark.parametrize("replaced", ["data_min_", "data_max_", "weights_"])
def test_a_replaced_scaler_bound_or_weights_scores_with_the_new_values(
    tmp_path, small_trained_detector, oracle_vectors, replaced
):
    """The scoring pass replays while the scaler's bounds and the weights
    are the arrays it was recorded with; replacing one between two calls
    records it again, over the new values."""
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    detector = load_model(path)
    vector = oracle_vectors[3]
    before = assert_scores_like_the_chain(detector, vector)
    assert_scores_like_the_chain(detector, vector)  # replayed
    if replaced == "weights_":
        flat = nn.param_buffer(detector.weights_) * 1.5
        detector.weights_ = nn.param_views(detector.architecture_, flat)
    else:
        scaler = detector.scaler_
        setattr(scaler, replaced, getattr(scaler, replaced) + 0.5)
    after = assert_scores_like_the_chain(detector, vector)
    assert after.recon_error != before.recon_error
    assert after.mu.tobytes() != before.mu.tobytes()


def test_loaded_detector_scores_like_the_chain(tmp_path, small_trained_detector, oracle_vectors):
    path = tmp_path / "model.json"
    small_trained_detector.score_vector(oracle_vectors[0])
    save_model(small_trained_detector, path)
    loaded = load_model(path)
    for vector in oracle_vectors[::5]:
        a = assert_scores_like_the_chain(loaded, vector)
        b = small_trained_detector.score_vector(vector)
        assert a.mu.tobytes() == b.mu.tobytes() and a.recon_error == b.recon_error


def test_set_threshold_k_rederives_policy(small_trained_detector):
    detector = small_trained_detector
    t3 = detector.threshold_
    detector.set_threshold_k(5.0)
    t5 = detector.threshold_
    detector.set_threshold_k(3.0)
    assert t5 > t3
    assert detector.threshold_ == t3


def test_threshold_k_reads_the_policy_in_force(small_trained_detector, tmp_path):
    path = tmp_path / "model.json"
    save_model(small_trained_detector, path)
    detector = load_model(path)
    assert detector.threshold_k == detector.threshold_policy_.k == 3.0
    detector.set_threshold_k(5.0)
    assert detector.threshold_k == 5.0
    detector.threshold_policy_ = HeuristicThreshold(0.5)
    assert detector.threshold_k is None
    save_model(detector, path)
    assert load_model(path).threshold_k is None
    assert small_detector().threshold_k is None  # not fitted: no policy in force


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
    # loaded first, so that nothing this process caches from the unedited
    # architecture can let its edited twin through
    load_model(path)
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


def _hostile_values():
    # copies: a later mutation of the same example may edit the value in
    # place, and must not change what the next example draws
    return st.sampled_from(_HOSTILE_VALUES).map(copy.deepcopy)


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
            parent[path[-1]] = draw(_hostile_values())
        elif kind == "wrap" and parent is not None:
            parent[path[-1]] = [node]
        elif kind == "append" and isinstance(node, list):
            node.append(draw(_hostile_values()))
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
    detector.score_samples(np.zeros((1, detector.architecture_.input_dim)))
