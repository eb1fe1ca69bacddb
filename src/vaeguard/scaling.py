"""Min-max feature scaling fitted on the training corpus.

Test-time values are deliberately NOT clipped to [0, 1]: out-of-range
features are exactly the anomaly signal the detector thresholds on.
Degenerate features (min == max in training) scale to 0.0 and invert
back to the training minimum.
"""

from __future__ import annotations

import numpy as np

from vaeguard.errors import EmptyDataset
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

    @property
    def n_features_(self) -> int:
        check_fitted(self, "data_min_")
        return int(self.data_min_.shape[0])

    def fit(self, X) -> "ActivityScaler":
        X = as_float_matrix(X)
        if X.shape[0] < 1:
            raise EmptyDataset("scaler requires at least one sample")
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        return self

    def _spans(self) -> tuple[np.ndarray, np.ndarray]:
        check_fitted(self, "data_min_")
        span = self.data_max_ - self.data_min_
        degenerate = span == 0.0
        # avoid 0/0; degenerate columns are overwritten below
        safe_span = np.where(degenerate, 1.0, span)
        return safe_span, degenerate

    def transform(self, X) -> np.ndarray:
        X = as_float_matrix(X)
        check_dimension(self.n_features_, X.shape[1])
        safe_span, degenerate = self._spans()
        scaled = (X - self.data_min_) / safe_span
        scaled[:, degenerate] = 0.0
        return scaled

    def inverse_transform(self, Y) -> np.ndarray:
        Y = as_float_matrix(Y)
        check_dimension(self.n_features_, Y.shape[1])
        safe_span, degenerate = self._spans()
        raw = Y * safe_span + self.data_min_
        raw[:, degenerate] = self.data_min_[degenerate]
        return raw

    def transform_vector(self, x: np.ndarray) -> np.ndarray:
        return self.transform(x.reshape(1, -1))[0]
