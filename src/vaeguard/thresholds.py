"""Reconstruction-error thresholds and the per-interval stability verdict.

Two ways to set the decision threshold: a fixed heuristic value chosen
from observed unstable periods, or k standard deviations above the mean
of the last training epoch's reconstruction errors. `is_stable` is the
one drift rule every verdict uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from vaeguard.errors import InvalidK

if TYPE_CHECKING:
    from vaeguard.vae import LatentRecord, TrainingCurve

# The k-sigma multiplier of the published configuration.
DEFAULT_K = 3.0


def check_k(k: float) -> None:
    """Reject a k-sigma multiplier that is not finite and > 0."""
    if not 0 < k < math.inf:
        raise InvalidK(f"k must be finite and > 0, got {k}")


def is_stable(errors, threshold: float) -> np.ndarray | bool:
    """Elementwise: stable iff an error is finite and does not strictly
    exceed the threshold. An error exactly at the threshold is stable; a
    non-finite one (overflow on an extreme anomaly) is always drift.

    One interval's error as a Python float gives a bool, decided without
    numpy; anything else gives a boolean array.
    """
    if type(errors) is float:
        return math.isfinite(errors) and errors <= threshold
    errors = np.asarray(errors, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.isfinite(errors) & (errors <= threshold)


@dataclass(frozen=True)
class HeuristicThreshold:
    threshold: float

    def __post_init__(self):
        if not (self.threshold > 0 and math.isfinite(self.threshold)):
            raise ValueError("heuristic threshold must be finite and > 0")


@dataclass(frozen=True)
class KSigmaThreshold:
    k: float
    error_mean: float
    error_sd: float
    threshold: float = field(init=False)

    def __post_init__(self):
        check_k(self.k)
        if self.error_mean < 0 or self.error_sd < 0:
            raise ValueError("error statistics must be non-negative")
        derived = self.error_mean + self.k * self.error_sd
        if not (derived > 0 and math.isfinite(derived)):
            raise ValueError("derived threshold must be finite and > 0")
        object.__setattr__(self, "threshold", derived)


ThresholdPolicy = Union[HeuristicThreshold, KSigmaThreshold]


@dataclass(frozen=True)
class StabilityVerdict:
    threshold: float
    stable: bool


def fit_threshold_ksigma(curve: "TrainingCurve", k: float) -> KSigmaThreshold:
    """Derive the k-sigma policy from a completed training curve."""
    return KSigmaThreshold(
        k=float(k), error_mean=curve.error_mean, error_sd=curve.error_sd
    )


def assess(latent: "LatentRecord", policy: ThresholdPolicy) -> StabilityVerdict:
    """The verdict on one interval's reconstruction error (see is_stable)."""
    return StabilityVerdict(
        threshold=policy.threshold,
        stable=bool(is_stable(latent.recon_error, policy.threshold)),
    )
