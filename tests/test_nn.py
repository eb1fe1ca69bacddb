import math

import numpy as np
import pytest

from conftest import elbo_terms
from vaeguard.errors import DimensionMismatch, NonFiniteInput
from vaeguard.nn import (
    VaeArchitecture,
    decode,
    encode,
    init_params,
    kl_divergence,
    param_buffer,
    param_views,
    reconstruction_error,
)

SMALL = VaeArchitecture(input_dim=4, hidden_units=(5, 3), latent_dim=2)


def test_architecture_validation():
    with pytest.raises(ValueError):
        VaeArchitecture(input_dim=0, hidden_units=(4,), latent_dim=2)
    with pytest.raises(ValueError):
        VaeArchitecture(input_dim=4, hidden_units=(), latent_dim=2)
    with pytest.raises(ValueError):
        VaeArchitecture(input_dim=4, hidden_units=(4,), latent_dim=0)
    for hidden in ((0,), (-3,), (4, 0), (4.5,), ("4",), (True,), (4, 4.0)):
        with pytest.raises(ValueError):
            VaeArchitecture(input_dim=4, hidden_units=hidden, latent_dim=2)
    for input_dim, latent_dim in ((4.0, 2), (4, 2.0), (4, 2.5), (True, 2), (4, True), ("4", 2)):
        with pytest.raises(ValueError):
            VaeArchitecture(input_dim, (4,), latent_dim)


def test_architecture_stores_numpy_integers_as_int():
    arch = VaeArchitecture(np.int64(4), (np.int32(3), 2), np.int64(2))
    assert arch == VaeArchitecture(4, (3, 2), 2)
    assert {type(v) for v in (arch.input_dim, *arch.hidden_units, arch.latent_dim)} == {int}


def test_init_params_are_views_into_one_buffer_in_key_order():
    arch = VaeArchitecture(input_dim=6, hidden_units=(5, 4, 3), latent_dim=2)
    params = init_params(arch, np.random.default_rng(4))
    assert list(params) == [
        "enc0_w", "enc0_b", "enc1_w", "enc1_b", "enc2_w", "enc2_b",
        "mu_w", "mu_b", "lv_w", "lv_b",
        "dec0_w", "dec0_b", "dec1_w", "dec1_b", "dec2_w", "dec2_b",
        "out_w", "out_b",
    ]
    assert params["enc0_w"].shape == (6, 5) and params["dec0_w"].shape == (2, 5)
    assert params["lv_w"].shape == (3, 2) and params["out_w"].shape == (3, 6)
    flat = param_buffer(params)
    assert flat.flags.c_contiguous and flat.dtype == np.float64
    np.testing.assert_array_equal(
        flat, np.concatenate([value.ravel() for value in params.values()])
    )
    flat[:] = np.arange(flat.size)
    offset = 0
    for value in params.values():
        np.testing.assert_array_equal(value.ravel(), np.arange(offset, offset + value.size))
        offset += value.size
    assert offset == flat.size


def test_init_params_draws_layer_by_layer():
    """Oracle: one fresh weight array per layer, drawn in layer order."""
    arch = VaeArchitecture(input_dim=6, hidden_units=(5, 4), latent_dim=2)
    layers = [
        ("enc0", 6, 5), ("enc1", 5, 4), ("mu", 4, 2), ("lv", 4, 2),
        ("dec0", 2, 5), ("dec1", 5, 4), ("out", 4, 6),
    ]
    rng = np.random.default_rng(9)
    expected = {}
    for name, fan_in, fan_out in layers:
        bound = 1.0 / np.sqrt(fan_in)
        expected[f"{name}_w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        expected[f"{name}_b"] = np.zeros(fan_out)
    params = init_params(arch, np.random.default_rng(9))
    assert list(params) == list(expected)
    for key in expected:
        np.testing.assert_array_equal(params[key], expected[key])


def test_param_views_reject_a_buffer_of_another_layout():
    size = sum(value.size for value in param_views(SMALL).values())
    for bad in (np.zeros(size + 1), np.zeros(size, dtype=np.float32), np.zeros(2 * size)[::2]):
        with pytest.raises(DimensionMismatch):
            param_views(SMALL, bad)
    with pytest.raises(ValueError):
        param_buffer({key: value.copy() for key, value in param_views(SMALL).items()})


def test_encode_zero_weights_gives_zero_posterior():
    params = param_views(SMALL)
    mu, logvar = encode(SMALL, params, np.array([3.0, -1.0, 2.0, 0.5]))
    np.testing.assert_array_equal(mu, np.zeros(2))
    np.testing.assert_array_equal(logvar, np.zeros(2))


def test_decode_zero_weights_gives_zero_output():
    params = param_views(SMALL)
    np.testing.assert_array_equal(decode(SMALL, params, np.array([1.0, -2.0])), np.zeros(4))


def test_forward_determinism():
    params = init_params(SMALL, np.random.default_rng(3))
    x = np.array([0.1, 0.9, 0.4, 0.2])
    first = encode(SMALL, params, x)
    second = encode(SMALL, params, x)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
    z = np.array([0.3, -0.7])
    np.testing.assert_array_equal(decode(SMALL, params, z), decode(SMALL, params, z))


def test_tiny_network_matches_hand_computation():
    """1-1-1 network evaluated with plain math as the oracle."""
    arch = VaeArchitecture(input_dim=1, hidden_units=(1,), latent_dim=1)
    params = param_views(arch)
    w1, b1 = 0.5, -0.2
    w_mu, b_mu = 1.5, 0.1
    w_lv, b_lv = -0.4, 0.3
    w_d, b_d = 0.8, 0.05
    w_o, b_o = -1.1, 0.6
    params["enc0_w"][:] = w1
    params["enc0_b"][:] = b1
    params["mu_w"][:] = w_mu
    params["mu_b"][:] = b_mu
    params["lv_w"][:] = w_lv
    params["lv_b"][:] = b_lv
    params["dec0_w"][:] = w_d
    params["dec0_b"][:] = b_d
    params["out_w"][:] = w_o
    params["out_b"][:] = b_o

    x = 0.7
    h = math.tanh(w1 * x + b1)
    expected_mu = w_mu * h + b_mu
    expected_lv = w_lv * h + b_lv
    mu, logvar = encode(arch, params, np.array([x]))
    assert mu[0] == pytest.approx(expected_mu, abs=1e-15)
    assert logvar[0] == pytest.approx(expected_lv, abs=1e-15)

    z = 0.25
    g = math.tanh(w_d * z + b_d)
    expected_out = w_o * g + b_o
    assert decode(arch, params, np.array([z]))[0] == pytest.approx(expected_out, abs=1e-15)


def test_encode_validates_input():
    params = param_views(SMALL)
    with pytest.raises(DimensionMismatch):
        encode(SMALL, params, np.zeros(3))
    with pytest.raises(NonFiniteInput):
        encode(SMALL, params, np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        decode(SMALL, params, np.zeros(3))


# -- KL divergence ----------------------------------------------------------


def test_kl_zero_at_standard_normal():
    assert kl_divergence(np.zeros(3), np.zeros(3)) == 0.0


def test_kl_unit_mean_case():
    assert kl_divergence(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)


def test_kl_log_variance_case():
    # 0.5 * (sigma^2 - ln sigma^2 - 1) with sigma^2 = 4
    expected = 0.5 * (4.0 - math.log(4.0) - 1.0)
    assert kl_divergence(np.array([0.0]), np.array([math.log(4.0)])) == pytest.approx(
        expected, abs=1e-9
    )
    assert expected == pytest.approx(0.80685, abs=5e-6)


def test_kl_matches_independent_evaluation():
    """Elementwise oracle: 0.5 * sum(mu^2 + sigma^2 - ln sigma^2 - 1)."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        mu = rng.normal(0, 2, n)
        logvar = rng.normal(0, 1.5, n)
        expected = 0.5 * sum(
            m * m + math.exp(lv) - lv - 1.0 for m, lv in zip(mu, logvar)
        )
        assert kl_divergence(mu, logvar) == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_kl_non_negative_everywhere():
    rng = np.random.default_rng(12)
    mu = rng.normal(0, 3, size=(500, 6))
    logvar = rng.normal(0, 2, size=(500, 6))
    assert (kl_divergence(mu, logvar) >= 0).all()


def test_kl_strictly_positive_away_from_prior():
    # zero only at mu = 0, logvar = 0
    rng = np.random.default_rng(13)
    for _ in range(200):
        mu = rng.normal(0, 1, 4)
        logvar = rng.normal(0, 1, 4)
        if np.any(mu != 0) or np.any(logvar != 0):
            assert kl_divergence(mu, logvar) > 0
    assert kl_divergence(np.array([1e-3, 0.0]), np.zeros(2)) > 0
    assert kl_divergence(np.zeros(2), np.array([0.0, 1e-3])) > 0


def test_kl_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        kl_divergence(np.array([np.inf]), np.array([0.0]))


# -- reconstruction error ----------------------------------------------------


def test_recon_error_zero_for_identical():
    x = np.array([1.0, 2.0, 3.0])
    assert reconstruction_error(x, x) == 0.0


def test_recon_error_examples():
    assert reconstruction_error(np.zeros(2), np.ones(2)) == 1.0
    assert reconstruction_error(
        np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])
    ) == pytest.approx(1.0 / 3.0)


def test_recon_error_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        reconstruction_error(np.zeros(2), np.zeros(3))


# -- ELBO ---------------------------------------------------------------------


def test_elbo_zero_for_perfect_reconstruction_without_kl():
    # zero weights reconstruct the zero vector exactly
    params = param_views(SMALL)
    x = np.zeros(4)
    eps = np.zeros(2)
    loss, recon, kl = elbo_terms(SMALL, params, x, eps, kl_weight=0.0)
    assert loss == 0.0
    assert recon == 0.0


def test_elbo_is_sum_of_terms():
    params = init_params(SMALL, np.random.default_rng(5))
    x = np.array([0.2, 0.8, 0.5, 0.1])
    eps = np.array([0.3, -0.6])
    for weight in (0.0, 0.5, 1.0, 2.0):
        loss, recon, kl = elbo_terms(SMALL, params, x, eps, kl_weight=weight)
        assert loss == pytest.approx(recon + weight * kl, rel=1e-12)


def test_elbo_terms_non_negative():
    rng = np.random.default_rng(6)
    params = init_params(SMALL, rng)
    for _ in range(20):
        x = rng.normal(0, 2, 4)
        loss, recon, kl = elbo_terms(SMALL, params, x, rng.standard_normal(2))
        assert recon >= 0.0
        assert kl >= 0.0


def test_monte_carlo_recon_sampler_consistency():
    """Two halves of 10k stochastic recon draws agree within 3 SE."""
    rng = np.random.default_rng(9)
    params = init_params(SMALL, rng)
    x = rng.uniform(0, 1, 4)
    draws = np.array(
        [elbo_terms(SMALL, params, x, rng.standard_normal(2))[1] for _ in range(10_000)]
    )
    first, second = draws[:5000], draws[5000:]
    gap = abs(first.mean() - second.mean())
    se = math.sqrt(first.var() / 5000 + second.var() / 5000)
    assert gap <= 3 * se
