"""Input validation helpers for the estimator-facing API."""

from __future__ import annotations

from typing import Any

import numpy as np

from vaeguard.errors import (
    DimensionMismatch,
    EmptyDataset,
    NonFiniteInput,
    NotFittedError,
)


def as_float_matrix(X: Any, name: str = "X") -> np.ndarray:
    """Coerce input to a 2-D float64 array, rejecting empty input."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyDataset(f"{name} is empty")
    return arr


def check_dimension(expected: int, actual: int, name: str = "input") -> None:
    if expected != actual:
        raise DimensionMismatch(
            f"{name} has dimension {actual}, expected {expected}"
        )


def check_finite(arr: np.ndarray, name: str = "input") -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or infinite values")


def check_fitted(estimator: Any, attribute: str) -> None:
    """Raise unless `attribute` was set by a successful fit()."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )

