"""Per-container stability detector: scaler + VAE + threshold in one estimator.

VaeStabilityDetector has sklearn-style fit/predict/transform. It is built
from a TrainConfig (every training hyperparameter, Adam's included), the
architecture's hidden widths and latent size, and k; set_threshold_k is
the one way to change k afterwards. fit() takes a matrix of raw activity
vectors, fits the min-max scaler, trains the VAE with mini-batch Adam,
and derives the k-sigma decision threshold from the final epoch's
training reconstruction errors. Scoring is deterministic: the latent
code is the posterior mean, never a sample, so one interval always
yields one reconstruction error.

save_model and load_model persist a detector as one JSON document (text,
trailing newline). JSON numbers round-trip float64 exactly via repr,
which is what makes fixed-seed training runs byte-identical on disk.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from vaeguard import nn
from vaeguard.errors import (
    CorruptModelFile,
    DimensionMismatch,
    InsufficientData,
    InvalidK,
    SchemaMismatch,
)
from vaeguard.nn import DEFAULT_HIDDEN_UNITS, DEFAULT_LATENT_DIM, VaeArchitecture
from vaeguard.scaling import ActivityScaler
from vaeguard.summarize import SCHEMA_VERSION, ActivityVector, IntervalKey
from vaeguard.thresholds import (
    DEFAULT_K,
    HeuristicThreshold,
    KSigmaThreshold,
    ThresholdPolicy,
    fit_threshold_ksigma,
    is_stable,
)
from vaeguard.validation import as_float_matrix, check_dimension, check_finite, check_fitted

logger = logging.getLogger(__name__)

BUNDLE_FORMAT = "vaeguard.model"
BUNDLE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, Adam's included; defaults are the published
    configuration."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 16
    kl_weight: float = 1.0
    accumulation_target: int = 120
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.accumulation_target < 1:
            raise ValueError("accumulation_target must be >= 1")
        if not (0 < self.learning_rate < math.inf and 0 < self.epsilon < math.inf):
            raise ValueError("learning_rate and epsilon must be finite and positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not 0 <= self.kl_weight < math.inf:
            raise ValueError("kl_weight must be finite and >= 0")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass
class TrainingCurve:
    """Per-epoch training losses plus the settled last-epoch statistics."""

    recon_per_epoch: list[float]
    kl_per_epoch: list[float]
    error_mean: float
    error_sd: float
    settled_error: float


@dataclass(frozen=True)
class LatentRecord:
    """Compact per-interval record: posterior and its reconstruction error."""

    key: IntervalKey
    mu: np.ndarray
    logvar: np.ndarray
    recon_error: float


def train(
    data: np.ndarray, arch: VaeArchitecture, config: TrainConfig
) -> tuple[nn.Params, TrainingCurve]:
    """Mini-batch gradient descent over normalized vectors.

    Weight init, epoch shuffles, and reparameterization draws all come
    from one seeded generator, so (data, config) fully determines the
    returned weights.
    """
    data = as_float_matrix(data, "training data")
    check_finite(data, "training data")
    n = data.shape[0]
    if n < config.accumulation_target:
        raise InsufficientData(n, config.accumulation_target)
    check_dimension(arch.input_dim, data.shape[1], "training data")

    rng = np.random.default_rng(config.seed)
    params = nn.init_params(arch, rng)
    flat = nn.param_buffer(params)
    grad_flat = np.empty_like(flat)
    grads = nn.param_views(arch, grad_flat)
    state = nn.adam_init(flat)

    recon_curve: list[float] = []
    kl_curve: list[float] = []
    last_epoch_errors: np.ndarray | None = None
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        recon_sum = 0.0
        kl_sum = 0.0
        final_epoch = epoch == config.epochs - 1
        collected: list[np.ndarray] = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = data[idx]
            eps = rng.standard_normal((len(idx), arch.latent_dim))
            _, (_, recon, kl), errors = nn.elbo_gradients(
                arch, params, xb, eps, config.kl_weight, out=grads
            )
            if final_epoch:
                collected.append(errors)
            step += 1
            nn.adam_step(flat, grad_flat, state, config, step)
            recon_sum += recon * len(idx)
            kl_sum += kl * len(idx)
        recon_curve.append(recon_sum / n)
        kl_curve.append(kl_sum / n)
        if final_epoch:
            last_epoch_errors = np.concatenate(collected)

    assert last_epoch_errors is not None
    curve = TrainingCurve(
        recon_per_epoch=recon_curve,
        kl_per_epoch=kl_curve,
        error_mean=float(np.mean(last_epoch_errors)),
        error_sd=float(np.std(last_epoch_errors)),
        settled_error=recon_curve[-1],
    )
    logger.info(
        "trained VAE: %d samples, %d epochs, recon %.6g -> %.6g",
        n,
        config.epochs,
        recon_curve[0],
        curve.settled_error,
    )
    return params, curve


class VaeStabilityDetector:
    """Learns a container's stable runtime pattern from activity vectors.

    Higher score_samples() output means further from the trained pattern;
    predict() returns +1 for stable intervals, -1 for drifted ones,
    using the k-sigma threshold fitted from the training curve. `train`
    holds every training hyperparameter; fit() and the saved bundle read it.
    """

    def __init__(
        self,
        train: TrainConfig = TrainConfig(),
        hidden_units: tuple[int, ...] = DEFAULT_HIDDEN_UNITS,
        latent_dim: int = DEFAULT_LATENT_DIM,
        threshold_k: float = DEFAULT_K,
    ):
        self.train = train
        self.hidden_units = hidden_units
        self.latent_dim = latent_dim
        self.threshold_k = threshold_k

        self.scaler_: ActivityScaler | None = None
        self.architecture_: VaeArchitecture | None = None
        self.weights_: nn.Params | None = None
        self.curve_: TrainingCurve | None = None
        self.threshold_policy_: ThresholdPolicy | None = None
        self.container_id: str | None = None

    @property
    def n_features_in_(self) -> int:
        check_fitted(self, "architecture_")
        return self.architecture_.input_dim

    @property
    def threshold_(self) -> float:
        check_fitted(self, "threshold_policy_")
        return self.threshold_policy_.threshold

    def fit(self, X, y=None) -> "VaeStabilityDetector":
        X = as_float_matrix(X)
        check_finite(X, "X")
        arch = VaeArchitecture(
            input_dim=X.shape[1],
            hidden_units=tuple(self.hidden_units),
            latent_dim=self.latent_dim,
        )
        self.scaler_ = ActivityScaler().fit(X)
        normalized = self.scaler_.transform(X)
        self.weights_, self.curve_ = train(normalized, arch, self.train)
        self.architecture_ = arch
        self.threshold_policy_ = fit_threshold_ksigma(self.curve_, self.threshold_k)
        return self

    def set_threshold_k(self, k: float) -> "VaeStabilityDetector":
        """Re-derive the k-sigma policy from the stored training curve."""
        check_fitted(self, "curve_")
        self.threshold_policy_ = fit_threshold_ksigma(self.curve_, k)
        self.threshold_k = k
        return self

    def _check_ready(self, X) -> np.ndarray:
        check_fitted(self, "weights_")
        X = as_float_matrix(X)
        if X.shape[1] != self.n_features_in_:
            raise SchemaMismatch(
                f"input has {X.shape[1]} features, model expects {self.n_features_in_}"
            )
        return X

    def encode(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mu, logvar) for raw vectors; normalization is internal."""
        X = self._check_ready(X)
        return nn.encode(self.architecture_, self.weights_, self.scaler_.transform(X))

    def transform(self, X) -> np.ndarray:
        """The compact representation published for stable intervals."""
        mu, _ = self.encode(X)
        return mu

    def _score(self, normalized: np.ndarray):
        """Posterior (mu, logvar) and the reconstruction error of its mean,
        for one normalized vector or a matrix of them."""
        mu, logvar = nn.encode(self.architecture_, self.weights_, normalized)
        recon = nn.decode(self.architecture_, self.weights_, mu)
        return mu, logvar, nn.reconstruction_error(normalized, recon)

    def score_samples(self, X) -> np.ndarray:
        """Deterministic reconstruction error per sample (higher = drift)."""
        X = self._check_ready(X)
        _, _, errors = self._score(self.scaler_.transform(X))
        return np.atleast_1d(errors)

    def predict(self, X) -> np.ndarray:
        """+1 for intervals within the stable pattern, -1 for drift."""
        return np.where(is_stable(self.score_samples(X), self.threshold_), 1, -1)

    def score_vector(self, vector: ActivityVector) -> LatentRecord:
        """Score one interval, returning its publishable latent record."""
        features = self._check_ready(vector.features)[0]
        mu, logvar, error = self._score(self.scaler_.transform_vector(features))
        return LatentRecord(key=vector.key, mu=mu, logvar=logvar, recon_error=float(error))


# -- persistence ------------------------------------------------------------


def _weights_to_json(params: nn.Params) -> dict:
    return {
        key: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        for key, arr in params.items()
    }


def _weights_from_json(raw: dict, arch: VaeArchitecture) -> nn.Params:
    """Weights as views into one buffer, each checked against the layout.

    The buffer is only as large as the data the bundle holds, whatever
    widths its architecture declares.
    """
    arrays = {key: np.array(entry["data"], dtype=np.float64) for key, entry in raw.items()}
    try:
        params = nn.param_views(arch, np.empty(sum(a.size for a in arrays.values())))
    except DimensionMismatch as exc:
        raise CorruptModelFile(f"model bundle weights do not match architecture: {exc}") from exc
    if set(raw) != set(params):
        raise CorruptModelFile("model bundle weights do not match architecture")
    for key, view in params.items():
        shape = tuple(raw[key]["shape"])
        if shape != view.shape:
            raise CorruptModelFile(
                f"weight {key}: shape {shape}, architecture needs {view.shape}"
            )
        data = arrays[key]
        if data.size != view.size:
            raise CorruptModelFile(f"weight {key}: data does not match shape {shape}")
        if not np.isfinite(data).all():
            raise CorruptModelFile(f"weight {key}: not finite")
        view[...] = data.reshape(shape)
    return params


def _curve_from_json(doc: dict) -> TrainingCurve:
    """The training curve, its statistics finite and non-negative and its
    per-epoch losses finite numbers."""
    curve = TrainingCurve(**doc)
    for name in ("error_mean", "error_sd", "settled_error"):
        value = getattr(curve, name)
        if not (type(value) in (int, float) and 0 <= float(value) < math.inf):
            raise CorruptModelFile(f"curve {name}: {value!r} is not a finite number >= 0")
    for name in ("recon_per_epoch", "kl_per_epoch"):
        values = getattr(curve, name)
        if not (
            type(values) is list
            and all(type(v) in (int, float) and math.isfinite(v) for v in values)
        ):
            raise CorruptModelFile(f"curve {name}: not a list of finite numbers")
    return curve


def _finite_vector(values, size: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != (size,):
        raise CorruptModelFile(f"{name}: shape {arr.shape}, model needs ({size},)")
    if not np.isfinite(arr).all():
        raise CorruptModelFile(f"{name}: not finite")
    return arr


def save_model(detector: VaeStabilityDetector, path) -> None:
    """Write the fitted detector as a self-describing JSON bundle."""
    check_fitted(detector, "weights_")
    policy = detector.threshold_policy_
    threshold_doc = {"kind": "ksigma", "value": policy.threshold}
    if isinstance(policy, KSigmaThreshold):
        threshold_doc.update(
            k=policy.k, error_mean=policy.error_mean, error_sd=policy.error_sd
        )
    else:
        threshold_doc["kind"] = "heuristic"
    bundle = {
        "format": BUNDLE_FORMAT,
        "format_version": BUNDLE_FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "container_id": detector.container_id,
        "architecture": asdict(detector.architecture_),
        "train_config": asdict(detector.train),
        "threshold": threshold_doc,
        "scaler": {
            "min": detector.scaler_.data_min_.tolist(),
            "max": detector.scaler_.data_max_.tolist(),
        },
        "curve": asdict(detector.curve_),
        "weights": _weights_to_json(detector.weights_),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(bundle, fh, separators=(",", ":"))
        fh.write("\n")


def load_model(path, expected_dim: int | None = None) -> VaeStabilityDetector:
    """Load a bundle written by save_model; lossless down to the bit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    except (OSError, ValueError, UnicodeDecodeError, RecursionError) as exc:
        # ValueError: invalid JSON, or an integer past the digit limit
        raise CorruptModelFile(f"cannot read model bundle {path}: {exc}") from exc

    try:
        if bundle["format"] != BUNDLE_FORMAT:
            raise CorruptModelFile(f"not a model bundle: {bundle['format']!r}")
        if bundle["format_version"] != BUNDLE_FORMAT_VERSION:
            raise CorruptModelFile(
                f"unsupported bundle version {bundle['format_version']}"
            )
        if bundle["schema_version"] != SCHEMA_VERSION:
            raise SchemaMismatch(
                f"bundle carries feature schema v{bundle['schema_version']},"
                f" this build uses v{SCHEMA_VERSION}"
            )
        arch = VaeArchitecture(**bundle["architecture"])
        detector = VaeStabilityDetector(
            TrainConfig(**bundle["train_config"]),
            arch.hidden_units,
            arch.latent_dim,
            bundle["threshold"].get("k", DEFAULT_K),
        )
        detector.container_id = bundle.get("container_id")
        detector.architecture_ = arch
        input_dim = arch.input_dim
        scaler = ActivityScaler()
        scaler.data_min_ = _finite_vector(bundle["scaler"]["min"], input_dim, "scaler min")
        scaler.data_max_ = _finite_vector(bundle["scaler"]["max"], input_dim, "scaler max")
        detector.scaler_ = scaler
        detector.curve_ = _curve_from_json(bundle["curve"])
        detector.weights_ = _weights_from_json(bundle["weights"], arch)
        threshold_doc = bundle["threshold"]
        if threshold_doc["kind"] == "ksigma":
            detector.threshold_policy_ = KSigmaThreshold(
                k=threshold_doc["k"],
                error_mean=threshold_doc["error_mean"],
                error_sd=threshold_doc["error_sd"],
            )
        else:
            detector.threshold_policy_ = HeuristicThreshold(
                threshold=threshold_doc["value"]
            )
    except (SchemaMismatch, CorruptModelFile):
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, InvalidK) as exc:
        # a missing or mistyped field, or a value its class rejects
        raise CorruptModelFile(f"model bundle {path} is invalid: {exc}") from exc

    if expected_dim is not None and detector.architecture_.input_dim != expected_dim:
        raise SchemaMismatch(
            f"model input dimension {detector.architecture_.input_dim},"
            f" expected {expected_dim}"
        )
    return detector
