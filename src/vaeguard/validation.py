"""Input validation helpers for the estimator-facing API."""

from __future__ import annotations

import inspect
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


class ParamsMixin:
    """get_params/set_params compatible with sklearn's estimator protocol.

    Constructor arguments must be stored on self under the same names,
    which is all sklearn.clone needs to re-instantiate the estimator.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != p.VAR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self
