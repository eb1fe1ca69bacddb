"""Min-max feature scaling fitted on the training corpus.

Test-time values are deliberately NOT clipped to [0, 1]: out-of-range
features are exactly the anomaly signal the detector thresholds on.
Degenerate features (min == max in training) scale to 0.0.
"""

from __future__ import annotations

import numpy as np

from vaeguard.validation import as_float_matrix, check_dimension, check_fitted


class ActivityScaler:
    """Per-feature min-max scaler with sklearn-style fit/transform.

    Attributes set by fit():
        data_min_: per-feature training minimum, shape (n_features,)
        data_max_: per-feature training maximum, shape (n_features,)
    """

    def __init__(self):
        self.data_min_: np.ndarray | None = None
        self.data_max_: np.ndarray | None = None
        # (data_min_, data_max_, divisor, degenerate mask) of the bounds last
        # scaled with; recomputed when either bound is replaced
        self._scaling: tuple[np.ndarray, ...] | None = None

    @property
    def n_features_(self) -> int:
        check_fitted(self, "data_min_")
        return int(self.data_min_.shape[0])

    def fit(self, X) -> "ActivityScaler":
        X = as_float_matrix(X)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        return self

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data_min_, per feature the span to divide by (1.0 where it is
        0, to avoid 0/0), and whether it is degenerate): the same arrays
        until either bound is replaced."""
        low, high = self.data_min_, self.data_max_
        cached = self._scaling
        if cached is None or cached[0] is not low or cached[1] is not high:
            span = high - low
            degenerate = span == 0.0
            cached = self._scaling = (low, high, np.where(degenerate, 1.0, span), degenerate)
        return cached[0], cached[2], cached[3]

    def transform(self, X) -> np.ndarray:
        X = as_float_matrix(X)
        check_dimension(self.n_features_, X.shape[1])
        return self.transform_vector(X)

    def transform_vector(self, x: np.ndarray) -> np.ndarray:
        """`transform` of float64 values whose last axis the caller has
        checked holds `n_features_` of them, such as one vector or a
        one-row matrix: nothing is converted or checked again."""
        low, divisor, degenerate = self.terms()
        scaled = (x - low) / divisor
        np.copyto(scaled, 0.0, where=degenerate)
        return scaled
