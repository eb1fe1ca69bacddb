"""Reconstruction-error thresholds and the per-interval stability verdict.

Two ways to set the decision threshold: a fixed heuristic value chosen
from observed unstable periods, or k standard deviations above the mean
of the last training epoch's reconstruction errors. Drift is a strict
exceedance: an error exactly at the threshold is still stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from vaeguard.errors import InvalidK

if TYPE_CHECKING:
    from vaeguard.summarize import IntervalKey
    from vaeguard.vae import LatentRecord, TrainingCurve

# The k-sigma multiplier of the published configuration.
DEFAULT_K = 3.0


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
        if self.k <= 0:
            raise InvalidK(f"k must be > 0, got {self.k}")
        if self.error_mean < 0 or self.error_sd < 0:
            raise ValueError("error statistics must be non-negative")
        derived = self.error_mean + self.k * self.error_sd
        if not (derived > 0 and math.isfinite(derived)):
            raise ValueError("derived threshold must be finite and > 0")
        object.__setattr__(self, "threshold", derived)


ThresholdPolicy = Union[HeuristicThreshold, KSigmaThreshold]


@dataclass(frozen=True)
class StabilityVerdict:
    key: "IntervalKey"
    recon_error: float
    threshold: float
    stable: bool
    latent: "LatentRecord"


def fit_threshold_ksigma(curve: "TrainingCurve", k: float) -> KSigmaThreshold:
    """Derive the k-sigma policy from a completed training curve."""
    if k <= 0:
        raise InvalidK(f"k must be > 0, got {k}")
    return KSigmaThreshold(
        k=float(k), error_mean=curve.error_mean, error_sd=curve.error_sd
    )


def assess(latent: "LatentRecord", policy: ThresholdPolicy) -> StabilityVerdict:
    """Stable iff the reconstruction error does not strictly exceed the
    threshold. Non-finite errors (overflow on extreme anomalies) always
    count as drift.
    """
    error = latent.recon_error
    stable = math.isfinite(error) and error <= policy.threshold
    return StabilityVerdict(
        key=latent.key,
        recon_error=error,
        threshold=policy.threshold,
        stable=stable,
        latent=latent,
    )
