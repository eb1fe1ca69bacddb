"""Per-container stability detector: scaler + VAE + threshold in one estimator.

VaeStabilityDetector has sklearn-style fit/predict/score_samples. It is built
from a TrainConfig (every training hyperparameter, Adam's included), the
architecture's hidden widths and latent size, and k; set_threshold_k is
the one way to change k afterwards. fit() takes a matrix of raw activity
vectors, fits the min-max scaler, trains the VAE with mini-batch Adam,
and derives the k-sigma decision threshold from the final epoch's
training reconstruction errors. Scoring is deterministic: the latent
code is the posterior mean, never a sample, so one interval always
yields one reconstruction error. Scoring is one recorded pass
(`_score_into`): scale, check finite, encode, decode, and the error, in
a workspace that holds the rows. score_vector, the publisher's
per-interval call, reuses one such workspace per detector (an
nn.Workspace of one row, bound again whenever `weights_` is replaced),
where the pass replays, so one detector must not score from two threads
at once; the publisher calls it sequentially. score_samples runs the
same pass in a workspace made for its rows.

save_model and load_model persist a detector as one JSON document (text,
trailing newline). JSON numbers round-trip float64 exactly via repr,
which is what makes fixed-seed training runs byte-identical on disk.
"""

from __future__ import annotations

import json
import logging
import math
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
from vaeguard.events import compact_json
from vaeguard.nn import DEFAULT_HIDDEN_UNITS, DEFAULT_LATENT_DIM, VaeArchitecture
from vaeguard.scaling import ActivityScaler
from vaeguard.summarize import SCHEMA_VERSION
from vaeguard.thresholds import (
    DEFAULT_K,
    HeuristicThreshold,
    KSigmaThreshold,
    ThresholdPolicy,
    fit_threshold_ksigma,
    is_stable,
)
from vaeguard.validation import as_float_matrix, check_dimension, check_finite, check_fitted, is_count

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
        # rejected here, not at the first training, which may come much later
        counts = (("epochs", 1), ("batch_size", 1), ("accumulation_target", 1), ("seed", 0))
        for name, least in counts:
            value = getattr(self, name)
            if not is_count(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (0 < self.learning_rate < math.inf and 0 < self.epsilon < math.inf):
            raise ValueError("learning_rate and epsilon must be finite and positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not 0 <= self.kl_weight < math.inf:
            raise ValueError("kl_weight must be finite and >= 0")


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
    """One interval's posterior and reconstruction error; its key is its action's."""

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
    # each batch is gathered into the workspace for its row count, so that
    # every pass reads that workspace's own arrays and every batch after
    # the first of its row count replays the calls that one recorded
    batches = []
    works: dict[int, nn.Workspace] = {}
    for start in range(0, n, config.batch_size):
        rows = min(config.batch_size, n - start)
        if rows not in works:
            works[rows] = nn.Workspace(arch, params, rows, grads)
        batches.append((start, start + rows, works[rows]))

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
        for start, stop, work in batches:
            data.take(order[start:stop], axis=0, out=work.input)
            # each batch's noise is drawn into its workspace just before the batch runs
            rng.standard_normal(out=work.eps)
            _, (_, recon, kl), errors = nn.elbo_gradients(
                arch, params, work.input, work.eps, config.kl_weight, grads, work
            )
            if final_epoch:
                collected.append(errors)
            step += 1
            nn.adam_step(flat, grad_flat, state, config, step)
            recon_sum += recon * work.rows
            kl_sum += kl * work.rows
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


def _score_into(
    run: nn._Recording,
    work: nn.Workspace,
    low: np.ndarray,
    divisor: np.ndarray,
    degenerate: np.ndarray,
) -> None:
    """Scale the raw rows work.input holds, in place, by the scaler terms
    `low`, `divisor` and `degenerate` (`ActivityScaler.terms`); check them
    finite (NonFiniteInput); encode them into work.posterior, decode its
    mu into work.recon, and write each row's reconstruction error into
    work.recon_rows. These are the operations, in their order, of
    `ActivityScaler.transform_vector`, `nn.encode`, `nn.decode` and
    `nn.reconstruction_error`, so every score is the bits they give."""
    x = work.input
    run(np.subtract, x, low, x)
    run(np.divide, x, divisor, x)
    run(np.copyto, x, 0.0, "same_kind", degenerate)
    run(nn.check_encoder_input, x)
    nn._encode_into(run, work, x)
    nn._decode_into(run, work, work.mu)
    run(np.subtract, x, work.recon, work.diff)
    run(np.square, work.diff, work.diff)
    run(np.add.reduce, work.diff, -1, None, work.recon_rows)
    run(np.divide, work.recon_rows, x.shape[1], work.recon_rows)


class VaeStabilityDetector:
    """Learns a container's stable runtime pattern from activity vectors.

    Higher score_samples() output means further from the trained pattern;
    predict() returns +1 for stable intervals, -1 for drifted ones,
    using the k-sigma threshold fitted from the training curve. `train`
    holds every training hyperparameter; fit() and the saved bundle read it.
    The constructor's k is fit()'s; `threshold_k` reads the policy in force.
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
        self._fit_k = threshold_k

        self.scaler_: ActivityScaler | None = None
        self.architecture_: VaeArchitecture | None = None
        self.weights_: nn.Params | None = None
        self.curve_: TrainingCurve | None = None
        self.threshold_policy_: ThresholdPolicy | None = None
        self.container_id: str | None = None
        # score_vector's one-row workspace, bound to the weights_ it was built
        # for, and holding the recording of its scoring pass
        self._work: nn.Workspace | None = None

    @property
    def threshold_k(self) -> float | None:
        """k of the k-sigma policy in force; None when the policy is
        heuristic or the detector is not fitted."""
        return getattr(self.threshold_policy_, "k", None)

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
        self.threshold_policy_ = fit_threshold_ksigma(self.curve_, self._fit_k)
        return self

    def set_threshold_k(self, k: float) -> "VaeStabilityDetector":
        """Re-derive the k-sigma policy from the stored training curve; a
        later fit() derives it with the constructor's k again."""
        check_fitted(self, "curve_")
        self.threshold_policy_ = fit_threshold_ksigma(self.curve_, k)
        return self

    def _check_ready(self, X) -> np.ndarray:
        check_fitted(self, "weights_")
        X = as_float_matrix(X)
        expected = self.architecture_.input_dim
        if X.shape[1] != expected:
            raise SchemaMismatch(f"input has {X.shape[1]} features, model expects {expected}")
        return X

    def _score_pass(self, work: nn.Workspace) -> None:
        """Score the raw rows `work.input` holds, in `work`, a workspace
        bound to `weights_` (see _score_into). The pass replays while the
        scaler's bounds are the arrays it was recorded with."""
        nn._play(work, "score", _score_into, *self.scaler_.terms())

    def score_samples(self, X) -> np.ndarray:
        """Deterministic reconstruction error per sample (higher = drift)."""
        X = self._check_ready(X)
        work = nn.Workspace(self.architecture_, self.weights_, len(X))
        np.copyto(work.input, X)
        self._score_pass(work)
        return work.recon_rows.copy()  # a row of the workspace's row_terms

    def predict(self, X) -> np.ndarray:
        """+1 for intervals within the stable pattern, -1 for drift."""
        return np.where(is_stable(self.score_samples(X), self.threshold_), 1, -1)

    def score_vector(self, features) -> LatentRecord:
        """Score one interval's activity vector, returning its latent record.

        The vector is copied into the input of a one-row workspace this
        detector keeps, bound again whenever `weights_` is replaced, and
        scored there by one recorded pass (`_score_pass`), which replays
        from the second call on; so one detector must not score from two
        threads at once. The record's arrays are its own. The vector is
        converted and checked once, here, as a one-row matrix; the pass
        only checks the scaled row is finite. A matrix of any other number
        of rows is a `DimensionMismatch`.
        """
        row = self._check_ready(features)
        if len(row) != 1:
            raise DimensionMismatch(f"expected one activity vector, got shape {row.shape}")
        work = self._work
        if work is None or work.params is not self.weights_:
            work = self._work = nn.Workspace(self.architecture_, self.weights_, 1)
        np.copyto(work.input, row)
        self._score_pass(work)
        mu, logvar = work.posterior[:, 0].copy()
        return LatentRecord(mu=mu, logvar=logvar, recon_error=float(work.recon_rows[0]))


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
        fh.write(compact_json(bundle))
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
