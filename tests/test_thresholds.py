import math

import numpy as np
import pytest

from vaeguard.errors import InvalidK
from vaeguard.pipeline import PipelineConfig
from vaeguard.thresholds import (
    HeuristicThreshold,
    KSigmaThreshold,
    assess,
    fit_threshold_ksigma,
    is_stable,
)
from vaeguard.vae import LatentRecord, TrainingCurve, VaeStabilityDetector


def curve(error_mean=0.01, error_sd=0.002):
    return TrainingCurve(
        recon_per_epoch=[0.1, error_mean],
        kl_per_epoch=[0.0, 0.0],
        error_mean=error_mean,
        error_sd=error_sd,
        settled_error=error_mean,
    )


def latent(recon_error):
    return LatentRecord(mu=np.zeros(2), logvar=np.zeros(2), recon_error=recon_error)


def test_ksigma_arithmetic():
    policy = fit_threshold_ksigma(curve(0.01, 0.002), k=3.0)
    assert policy.threshold == pytest.approx(0.016)
    assert policy.k == 3.0


def test_zero_sd_collapses_to_mean():
    for k in (1.0, 2.0, 10.0):
        assert fit_threshold_ksigma(curve(0.01, 0.0), k).threshold == 0.01


def test_threshold_monotone_in_k():
    c = curve(0.01, 0.002)
    thresholds = [fit_threshold_ksigma(c, k).threshold for k in (1.0, 3.0, 5.0)]
    assert thresholds[0] < thresholds[1] < thresholds[2]


def test_invalid_k_rejected():
    for k in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidK):
            fit_threshold_ksigma(curve(), k=k)
        with pytest.raises(InvalidK):
            KSigmaThreshold(k=k, error_mean=0.01, error_sd=0.0)
        with pytest.raises(InvalidK):
            PipelineConfig(threshold_k=k)


def test_heuristic_threshold_validation():
    assert HeuristicThreshold(1.0).threshold == 1.0
    with pytest.raises(ValueError):
        HeuristicThreshold(0.0)
    with pytest.raises(ValueError):
        HeuristicThreshold(math.inf)


def test_assess_stable_interval():
    verdict = assess(latent(0.014993), HeuristicThreshold(1.0))
    assert verdict.stable
    assert verdict.threshold == 1.0


def test_assess_unstable_interval():
    verdict = assess(latent(6.298320), HeuristicThreshold(1.0))
    assert not verdict.stable


def predict_on(errors, threshold, monkeypatch):
    """`predict`'s verdicts for given reconstruction errors."""
    detector = VaeStabilityDetector()
    detector.threshold_policy_ = HeuristicThreshold(threshold)
    monkeypatch.setattr(detector, "score_samples", lambda X: np.array(errors))
    return detector.predict(np.zeros((len(errors), 1)))


def test_boundary_equality_is_stable(monkeypatch):
    verdict = assess(latent(1.0), HeuristicThreshold(1.0))
    assert verdict.stable
    just_over = assess(latent(math.nextafter(1.0, 2.0)), HeuristicThreshold(1.0))
    assert not just_over.stable
    errors = [1.0, math.nextafter(1.0, 2.0)]
    assert is_stable(errors, 1.0).tolist() == [True, False]
    assert predict_on(errors, 1.0, monkeypatch).tolist() == [1, -1]


def test_non_finite_error_is_always_drift(monkeypatch):
    for bad in (math.inf, math.nan):
        assert not assess(latent(bad), HeuristicThreshold(1e300)).stable
    errors = [math.inf, math.nan, -math.inf]
    assert not is_stable(errors, 1e300).any()
    assert predict_on(errors, 1e300, monkeypatch).tolist() == [-1, -1, -1]


def test_one_float_error_gets_the_rule_arrays_get():
    values = [0.0, -0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), 1e300, -1e300,
              math.inf, -math.inf, math.nan]
    for threshold in (1.0, 1e300):
        expected = is_stable(np.array(values), threshold).tolist()
        assert [is_stable(v, threshold) for v in values] == expected
        assert [assess(latent(v), HeuristicThreshold(threshold)).stable for v in values] == expected


def test_assess_is_pure():
    record = latent(0.5)
    policy = fit_threshold_ksigma(curve(0.4, 0.1), 3.0)
    a = assess(record, policy)
    b = assess(record, policy)
    assert a == b


def test_ksigma_invariant_field():
    policy = KSigmaThreshold(k=2.0, error_mean=0.3, error_sd=0.05)
    assert policy.threshold == pytest.approx(0.3 + 2.0 * 0.05)
