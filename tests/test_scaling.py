import numpy as np
import pytest

from vaeguard.errors import DimensionMismatch, EmptyDataset, NotFittedError
from vaeguard.scaling import ActivityScaler


def test_fit_records_extrema():
    scaler = ActivityScaler().fit([[0, 10], [4, 20]])
    np.testing.assert_array_equal(scaler.data_min_, [0, 10])
    np.testing.assert_array_equal(scaler.data_max_, [4, 20])


def test_single_row_fit():
    scaler = ActivityScaler().fit([[3, 3]])
    np.testing.assert_array_equal(scaler.data_min_, [3, 3])
    np.testing.assert_array_equal(scaler.data_max_, [3, 3])


def test_training_set_maps_into_unit_interval():
    rng = np.random.default_rng(0)
    X = rng.uniform(-50, 50, size=(40, 7))
    scaled = ActivityScaler().fit(X).transform(X)
    assert scaled.min() >= 0.0
    assert scaled.max() <= 1.0


def test_midpoint_maps_to_half():
    scaler = ActivityScaler().fit([[2.0], [6.0]])
    assert scaler.transform([[4.0]])[0, 0] == 0.5


def test_degenerate_feature_maps_to_zero():
    scaler = ActivityScaler().fit([[3.0], [3.0]])
    assert scaler.transform([[3.0]])[0, 0] == 0.0
    assert scaler.transform([[99.0]])[0, 0] == 0.0


def test_out_of_range_values_are_not_clipped():
    scaler = ActivityScaler().fit([[0.0], [10.0]])
    assert scaler.transform([[20.0]])[0, 0] == 2.0
    assert scaler.transform([[-5.0]])[0, 0] == -0.5


def test_inverse_round_trip():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1000, size=(30, 5))
    scaler = ActivityScaler().fit(X)
    restored = scaler.inverse_transform(scaler.transform(X))
    np.testing.assert_allclose(restored, X, rtol=1e-9)


def test_inverse_endpoints():
    scaler = ActivityScaler().fit([[2.0, 5.0], [8.0, 9.0]])
    np.testing.assert_array_equal(scaler.inverse_transform([[0.0, 0.0]]), [[2.0, 5.0]])
    np.testing.assert_array_equal(scaler.inverse_transform([[1.0, 1.0]]), [[8.0, 9.0]])


def test_inverse_of_degenerate_returns_min():
    scaler = ActivityScaler().fit([[3.0], [3.0]])
    assert scaler.inverse_transform([[0.7]])[0, 0] == 3.0


def test_transform_is_monotone_per_feature():
    rng = np.random.default_rng(2)
    X = rng.uniform(-10, 10, size=(20, 3))
    scaler = ActivityScaler().fit(X)
    lo = scaler.transform(np.full((1, 3), -3.0))
    hi = scaler.transform(np.full((1, 3), 3.0))
    assert (hi > lo).all()


def test_dimension_mismatch():
    scaler = ActivityScaler().fit([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        scaler.transform([[1.0, 2.0, 3.0]])
    with pytest.raises(DimensionMismatch):
        scaler.inverse_transform([[1.0]])


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        ActivityScaler().fit(np.empty((0, 4)))


def test_unfitted_scaler_raises():
    with pytest.raises(NotFittedError):
        ActivityScaler().transform([[1.0]])
